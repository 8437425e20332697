"""The superdiagonal rescaling of a 2-fold replication, checked by explicit
conjugation: the acceptance gate and the matryoshka tests both run it."""

from fractions import Fraction

from superkac.algebra import GenLabel, InputError
from superkac.exact import PolyMatrix
from superkac.kacmod import KacModule
from superkac.matryoshka import ReplicationSpec, replicate
from superkac.report import VerificationReport


def rescale_conjugation_check(K: KacModule, lam: Fraction) -> VerificationReport:
    """Q U(1) Q^-1 = U(lambda) and likewise for Y, with Q = diag(lambda I, I)."""
    lam = Fraction(lam)
    if lam == 0:
        raise InputError("rescaling needs a nonzero lambda")
    report = VerificationReport(f"superdiagonal rescaling by {lam}")
    base = replicate(K, ReplicationSpec(2, (Fraction(1),)))
    target = replicate(K, ReplicationSpec(2, (lam,)))
    dim, params = K.dim, K.params
    eye = PolyMatrix.identity(dim, params)
    q = PolyMatrix.from_blocks(2 * dim, 2 * dim, params,
                               [(0, 0, eye, lam), (dim, dim, eye)])
    q_inv = PolyMatrix.from_blocks(2 * dim, 2 * dim, params,
                                   [(0, 0, eye, 1 / lam), (dim, dim, eye)])
    labels = [GenLabel("y")] + [GenLabel("u", i)
                                for i in range(1, K.odd_count + 1)]
    for label in labels:
        lhs = q @ base.matrices[label] @ q_inv
        if lhs != target.matrices[label]:
            pos, val = (lhs - target.matrices[label]).first_nonzero()
            report.add_fail(f"conjugation on {label}", f"entry {pos}", str(val))
            return report
    report.add_pass(f"Q (.) Q^-1 maps coupling 1 to coupling {lam} on Y and "
                    "all u matrices")
    return report
