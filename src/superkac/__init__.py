"""Exact matrix realizations of Kac modules of gl(m|n) / sl(m|n), m != n,
with the odd Dynkin label kept symbolic, plus their indecomposable nested
N-replications, J_n(nu) twists and the associated Heisenberg-superalgebra
module structure.
"""

from superkac.exact import ParamPoly, PolyMatrix, Rational

__all__ = ["ParamPoly", "PolyMatrix", "Rational"]
__version__ = "0.1.0"
