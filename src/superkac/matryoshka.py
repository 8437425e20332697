"""Nested N-replications of Kac modules.

Because the module matrices are affine in the odd label b (and the gl
central charge c), they have an exact first-order derivative B along any
direction nu on the centre h' of the even subalgebra, with the hypercharge
part taken through y0 = (b - d.a)/k.  Placing the base matrices A on the
block diagonal and B, scaled by couplings, on the first block superdiagonal
gives for every N a representation on N stacked copies of the module.  The
pure hypercharge direction with couplings lambda_t is the replication; with
every coupling nonzero its hypercharge acts by Jordan blocks of size N on
every weight space, which the replicate verb checks.  That profile alone
does not prove the module indecomposable: the direct sum of an N-fold
replication and K has the same one.  A general direction with
unit couplings is the twist by the indecomposable h'-module J_n(nu).  The
Heisenberg family rho_t scales a twist's superdiagonal by a formal t, and
is read off its deformation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import lcm

from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              bracket_violations, check_super_relations,
                              extend_matrices, sbracket, violations_report)
from superkac.exact import (PolyMatrix, combination, integer_product,
                            kronecker_sum, rat)
from superkac.kacmod import KacModule, weight_spaces
from superkac.record import Record
from superkac.report import VerificationReport


class Deformation(Record):
    """A Kac module's matrices A with their derivative B along nu on h'.

    A covers the full basis (nonsimple root vectors via their recipes) and
    B = D(A) is computed from it, for the derivation D = nu_y * k * d/db +
    nu_c * d/dc, where nu = (nu_y, nu_c).  With S the block shift carrying
    the couplings, X = I (x) A + S (x) B satisfies the superbracket
    relations exactly when, at base dimension,
      (i)   the base relations hold, symbolically in (b, c);
      (ii)  [A_a, B_b] + [B_a, A_b] = sum_t f_ab^t B_t  (for N >= 2);
      (iii) [B_a, B_b] = 0  (for N >= 3, where S^2 is nonzero).

    Derivation lemma: with R_ab = [A_a, A_b] - sum_t f_ab^t A_t the
    residual of (i), the residual of (ii) is D(R_ab) by Leibniz, as B = D(A)
    (premise P1, which holds by construction).  Where no term of any A has
    degree above 1 along D (premise P2), D(B) = 0, and the residual of
    (iii) is D^2(R_ab) / 2.  So wherever (i) holds symbolically and P2
    holds, (ii) and (iii) hold too.  P2 is checked in O(nnz) by
    ``affine_along``; ``block_relations_report`` relies on it.
    """

    base: KacModule
    nu: tuple                     # (nu_y, nu_c), the direction of D
    A: dict                       # GenLabel -> PolyMatrix

    @cached_property
    def B(self) -> dict:
        """GenLabel -> D(A), over the labels of A."""
        return {label: self.along(mat) for label, mat in self.A.items()}

    def along(self, mat: PolyMatrix) -> PolyMatrix:
        """D(mat), the derivative of a matrix over the base params along
        this deformation's direction."""
        nu_y, nu_c = self.nu
        return combination(
            [(self.base.sc.k * nu_y, mat.derivative("b"), None)]
            + ([(nu_c, mat.derivative("c"), None)] if nu_c else []))

    def affine_along(self) -> bool:
        """Premise P2: no term of any A has degree above 1 along D, i.e.
        in the parameters whose coefficient in D is nonzero."""
        moved = [self.base.params.index(name)
                 for name, x in zip(("b", "c"), self.nu) if x]
        return all(sum(exps[i] for i in moved) <= 1
                   for mat in self.A.values() for exps in mat.terms)

    def materialize(self, couplings: Sequence, labels=None) -> dict:
        """Block matrices I (x) A + S (x) B of the given labels, by default
        the generator surface, where S carries the rational couplings[t]
        from copy t+1 to copy t over one common denominator."""
        N = len(couplings) + 1
        diagonal = (1, {t: {t: 1} for t in range(N)})
        den = lcm(*(c.denominator for c in couplings))
        shift = (den, {t: {t + 1: int(c * den)}
                       for t, c in enumerate(couplings)})
        matrices = {}
        for label in self.base.matrices if labels is None else labels:
            parts = [(diagonal, self.A[label])]
            if not self.B[label].is_zero:
                parts.append((shift, self.B[label]))
            matrices[label] = kronecker_sum(N, self.base.dim,
                                            self.base.params, parts)
        return matrices


def deformation(K: KacModule, nu_y, nu_c=Fraction(0)) -> Deformation:
    """The first-order deformation of K along nu = (nu_y, nu_c)."""
    nu = (rat(nu_y), rat(nu_c))
    if nu[1] and "c" not in K.params:
        raise InputError("a z0 twist direction needs flavor gl")
    return Deformation(base=K, nu=nu,
                       A=extend_matrices(K.matrices, K.sc.recipes))


def odd_derivative(K: KacModule) -> Deformation:
    """The hypercharge deformation, nu = (1, 0).  Its u-part is
    u' = d/dy0 of each odd raising matrix, computed as k d/db."""
    return deformation(K, Fraction(1))


LINEARIZED = "(ii) linearized relations [A_a,B_b] + [B_a,A_b] = f.B"
SQUARE = "(iii) [B_a,B_b] = 0"


def derivative_violations(D: Deformation, N: int) -> dict:
    """Violating generator pairs of identities (ii) and (iii) for an
    N-fold module, each computed directly.

    Only N decides which identities apply: (ii) from N = 2, (iii) from
    N = 3.  Only the pairs that contain a label of ``sc.generators`` are
    checked: the block matrices X = I (x) A + S (x) B are a linear map of
    g whose I, S and S^2 parts separate, so the generator-pair lemma of
    ``bracket_violations`` gives the verdict of all pairs for (i)-(iii)
    together; (ii) alone is exact once (i) holds, (iii) once (i) and (ii)
    hold."""
    sc = D.base.sc
    A, B = D.A, D.B
    out = {}
    if N >= 2:
        out[LINEARIZED] = bracket_violations(
            sc.basis, sc.generators, sc.table, B,
            lambda la, lb, pa, pb: sbracket(pa, pb, A[la], B[lb])
            + sbracket(pa, pb, B[la], A[lb]))
    if N >= 3:
        out[SQUARE] = bracket_violations(sc.basis, sc.generators, {}, B)
    return out


def _identities_report(D: Deformation, title: str, violations: dict,
                       premise: str | None = None) -> VerificationReport:
    """One check item per identity of {name: violating pairs}."""
    report = VerificationReport(title)
    for name, found in violations.items():
        report.extend(violations_report(title, name, D.base.sc.basis,
                                        D.base.sc.generators, found,
                                        premise))
    return report


def derivative_report(D: Deformation, N: int, title: str,
                      premise: str | None = None) -> VerificationReport:
    """One check item per identity of derivative_violations.  A caller
    that has not checked (i) names it as the premise under which the
    generator pairs imply all pairs."""
    return _identities_report(D, title, derivative_violations(D, N),
                              premise)


def block_relations_report(module: ReplicatedModule,
                           check=check_super_relations) -> VerificationReport:
    """The relations of an N-fold block module of a deformation, verified
    at base dimension as (i) the base relations and (ii)-(iii).

    (i) is ``check(A, sc, title)``, the one relation checker unless a
    caller passes its own binding of it.  B is D(A) by construction
    (premise P1), so where (i) has no violation and, for N >= 3, every A is
    affine along D (premise P2), the derivation lemma of ``Deformation``
    proves (ii) and (iii) on every pair, and they are reported as passing
    without a product.
    Otherwise they are computed by ``derivative_report``, so every failing
    item, count and locator is that of the direct path; where (i) fails,
    their items name it as the premise under which the generator pairs
    imply all pairs."""
    D, N = module.deformation, module.N
    report = check(D.A, D.base.sc, "base relations")
    if N == 1:
        return report
    title = "first-order relations"
    if report.ok and (N < 3 or D.affine_along()):
        report.extend(_identities_report(
            D, title, {name: [] for name in (LINEARIZED, SQUARE)[:N - 1]}))
    else:
        report.extend(derivative_report(
            D, N, title, None if report.ok else "the base relations"))
    return report


# -- block modules ------------------------------------------------------------

def _rationals(field: str, values) -> tuple:
    """values as exact rationals, through ``exact.rat``; a value it
    refuses, such as a float, raises an InputError that names the field."""
    try:
        return tuple(rat(x) for x in values)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"{field} must be exact rationals such as 5/7, "
                         f"got {values!r}") from None


class ReplicationSpec(Record):
    N: int
    lambdas: tuple

    def _validate(self):
        if self.N < 1:
            raise InputError("replication needs N >= 1")
        lams = _rationals("lambdas", self.lambdas)
        if len(lams) != self.N - 1:
            raise InputError(f"N={self.N} needs {self.N - 1} coupling scalars, "
                             f"got {len(lams)}")
        if any(lam == 0 for lam in lams):
            raise InputError(
                "zero coupling scalar rejected: it splits the extension "
                "into a direct sum")
        object.__setattr__(self, "lambdas", lams)


class TwistSpec(Record):
    n: int
    nu: tuple                     # coefficients on (y direction, z0 direction)

    def _validate(self):
        if self.n < 1:
            raise InputError("twist needs n >= 1")
        nu = _rationals("nu", self.nu)
        if len(nu) not in (1, 2):
            raise InputError("nu must have one (sl) or two (gl) components")
        if all(x == 0 for x in nu):
            raise InputError("nu = 0 rejected: the twist would be trivial")
        object.__setattr__(self, "nu", nu)


class ReplicatedModule(Record):
    """N x N block module of a deformation: base blocks on the diagonal,
    derivative blocks scaled by the rational couplings on the first
    superdiagonal.  The block matrices are built on first use."""

    deformation: Deformation
    couplings: tuple              # per-level scalars multiplying the superdiagonal
    nu: tuple | None              # twist direction, None for pure replications

    @property
    def base(self) -> KacModule:
        return self.deformation.base

    @property
    def params(self) -> tuple:
        return self.base.params

    @property
    def N(self) -> int:
        return len(self.couplings) + 1

    @cached_property
    def matrices(self) -> dict:
        return self.deformation.materialize(self.couplings)

    @property
    def hw(self) -> tuple:
        return self.base.hw

    @cached_property
    def shifts(self) -> tuple:
        return self.base.shifts * self.N

    @cached_property
    def layers(self) -> tuple:
        return tuple(self.base.layers) * self.N

    @property
    def dim(self) -> int:
        return self.N * self.base.dim


def replicate(K: KacModule, spec: ReplicationSpec) -> ReplicatedModule:
    """N stacked copies coupled through u' and the identity on Y."""
    return ReplicatedModule(odd_derivative(K), spec.lambdas, None)


def twist(K: KacModule, spec: TwistSpec) -> ReplicatedModule:
    """K(L x J_n(nu)): n copies coupled through the nu-directional derivative."""
    if len(spec.nu) == 2 and "c" not in K.params:
        raise InputError("nu must have one component on sl, which has no "
                         f"z0 direction; got {[str(x) for x in spec.nu]}")
    return ReplicatedModule(deformation(K, *spec.nu),
                            (Fraction(1),) * (spec.n - 1), spec.nu)


# -- invariants of the block modules ------------------------------------------

def cartan_matrix_of(module, h_coeffs: Mapping[GenLabel, Fraction]) -> PolyMatrix:
    """Matrix of a Cartan combination sum h_coeffs[label] * label; a block
    module builds only the labels of h_coeffs."""
    mats = module.deformation.materialize(module.couplings, h_coeffs) \
        if isinstance(module, ReplicatedModule) else module.matrices
    return combination([(coeff, mats[label], None)
                        for label, coeff in h_coeffs.items()])


def jordan_minpoly_profile(module, bindings: Mapping[str, Fraction],
                           h_coeffs: Mapping[GenLabel, Fraction]) -> dict:
    """Exact minimal polynomial degree of the Cartan element h_coeffs on
    every generalized weight space, after binding the symbolic parameters.

    The degree is the nilpotency index of the restriction minus its scalar
    part; for an N-fold replication with all couplings nonzero it equals N
    for the hypercharge wherever the base multiplicity is nonzero.
    """
    # weight_spaces raises ParameterizedEntryError unless every parameter
    # is bound, and integer_term unless the matrix is then rational
    _, stored = cartan_matrix_of(module, h_coeffs).substitute(
        bindings).integer_term()
    profile = {}
    for key, cols in weight_spaces(module, bindings).items():
        # the block minus its scalar part, the common diagonal value the
        # weight space carries, times the matrix's denominator, which does
        # not change its nilpotency index
        at = {c: j for j, c in enumerate(cols)}
        eigen = stored.get(cols[0], {}).get(cols[0], 0)
        nil = {}
        for i, r in enumerate(cols):
            row = {at[c]: x for c, x in stored.get(r, {}).items() if c in at}
            row[i] = row.get(i, 0) - eigen
            row = {j: x for j, x in row.items() if x}
            if row:
                nil[i] = row
        degree = 1
        power = nil
        while power:
            degree += 1
            if degree > len(cols):
                raise InternalConsistencyError(
                    "Cartan element is not nilpotent minus scalar on a "
                    "generalized weight space")
            power = integer_product(power, nil)
        profile[key] = degree
    return profile

