"""Nested N-replications of Kac modules.

Because the module matrices are affine in the odd label b (and the gl
central charge c), they have an exact first-order derivative B along any
direction nu on the centre h' of the even subalgebra, with the hypercharge
part taken through y0 = (b - d.a)/k.  Every block module is
I (x) A + C (x) B: the base matrices A on the block diagonal and B coupled
by an N x N coupling matrix C, which gives for every N a representation on
N stacked copies of the module.  A deformation holds A on the generator
surface of K and derives B for a label on its first read; only the direct
check of the first-order identities extends them to the full basis.  The
pure hypercharge direction with C the superdiagonal of the couplings
lambda_t is the replication; with every coupling nonzero its hypercharge
acts by Jordan blocks of size N on every weight space, which the replicate
verb checks, reading the degree off C.  That profile alone does not prove
the module indecomposable: the direct sum of an N-fold replication and K
has the same one.  A general direction with C = J_n(0) is the twist by the
indecomposable h'-module J_n(nu).  The Heisenberg family rho_t scales a
twist's C by a formal t, and is read off its deformation.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              bracket_violations, check_super_relations,
                              extend_matrices, sbracket, violations_report)
from superkac.exact import (PolyMatrix, combination, integer_product,
                            kronecker_sum, rat)
from superkac.kacmod import KacModule, weight_spaces
from superkac.record import Record
from superkac.report import VerificationReport


class _Derivatives(Mapping):
    """D(A) of each label of a deformation's A, computed on its first
    read."""

    def __init__(self, deformation: Deformation):
        self._deformation = deformation
        self._read: dict = {}

    def __getitem__(self, label: GenLabel) -> PolyMatrix:
        mat = self._read.get(label)
        if mat is None:
            D = self._deformation
            mat = self._read[label] = D.along(D.A[label])
        return mat

    def __contains__(self, label) -> bool:
        return label in self._deformation.A

    def __iter__(self):
        return iter(self._deformation.A)

    def __len__(self) -> int:
        return len(self._deformation.A)


class Deformation(Record):
    """A Kac module's matrices A with their derivative B along nu on h'.

    A holds the generator surface (``K.matrices``); a nonsimple root
    vector that A leaves out is its recipe's bracket.  B = D(A) is derived
    label by label as it is read, for the derivation D = nu_y * k * d/db +
    nu_c * d/dc, where nu = (nu_y, nu_c).  With C a nilpotent N x N
    coupling matrix, X = I (x) A + C (x) B satisfies the superbracket
    relations exactly when, at base dimension,
      (i)   the base relations hold, symbolically in (b, c);
      (ii)  [A_a, B_b] + [B_a, A_b] = sum_t f_ab^t B_t  (where C != 0);
      (iii) [B_a, B_b] = 0  (where C^2 != 0).

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
    A: Mapping                    # GenLabel -> PolyMatrix

    @cached_property
    def B(self) -> Mapping:
        """GenLabel -> D(A), over the labels of A, each formed on its
        first read."""
        return _Derivatives(self)

    def along(self, mat: PolyMatrix) -> PolyMatrix:
        """D(mat), the derivative of a matrix over the base params along
        this deformation's direction."""
        nu_y, nu_c = self.nu
        return combination(
            [(self.base.sc.k * nu_y, mat.derivative("b"), None)]
            + ([(nu_c, mat.derivative("c"), None)] if nu_c else []))

    def affine_along(self) -> bool:
        """Premise P2: no term of any A on the full basis has degree above
        1 along D, i.e. in the parameters whose coefficient in D is
        nonzero.  A nonsimple label that A leaves to its recipe has at most
        the sum of its operands' degrees, so its matrix is formed only
        where that bound exceeds 1."""
        moved = [self.base.params.index(name)
                 for name, x in zip(("b", "c"), self.nu) if x]

        def degree(mat: PolyMatrix) -> int:
            return max((sum(exps[i] for i in moved) for exps in mat.terms),
                       default=0)

        degrees = {label: degree(mat) for label, mat in self.A.items()}
        recipes = self.base.sc.recipes

        def bound(label: GenLabel) -> int:
            if label not in degrees:
                left, right = recipes[label]
                degrees[label] = bound(left) + bound(right)
            return degrees[label]

        if any(d > 1 for d in degrees.values()):
            return False
        if all(bound(label) <= 1 for label in recipes):
            return True
        extended = extend_matrices(self.A, recipes)
        return all(degree(extended[label]) <= 1 for label in recipes)


def deformation(K: KacModule, nu_y, nu_c=Fraction(0)) -> Deformation:
    """The first-order deformation of K along nu = (nu_y, nu_c)."""
    nu = (rat(nu_y), rat(nu_c))
    if nu[1] and "c" not in K.params:
        raise InputError("a z0 twist direction needs flavor gl")
    return Deformation(base=K, nu=nu, A=K.matrices)


def odd_derivative(K: KacModule) -> Deformation:
    """The hypercharge deformation, nu = (1, 0).  Its u-part is
    u' = d/dy0 of each odd raising matrix, computed as k d/db."""
    return deformation(K, Fraction(1))


LINEARIZED = "(ii) linearized relations [A_a,B_b] + [B_a,A_b] = f.B"
SQUARE = "(iii) [B_a,B_b] = 0"


def derivative_violations(D: Deformation, N: int) -> dict:
    """Violating generator pairs of identities (ii) and (iii) for a block
    module whose coupling matrix C has nilpotency index N, each computed
    directly.

    Only N decides which identities apply: (ii) from N = 2, where C != 0,
    and (iii) from N = 3, where C^2 != 0.  Only the pairs that contain a
    label of ``sc.generators`` are checked: the block matrices
    X = I (x) A + C (x) B are a linear map of g whose I, C and C^2 parts
    separate, so the generator-pair lemma of
    ``bracket_violations`` gives the verdict of all pairs for (i)-(iii)
    together; (ii) alone is exact once (i) holds, (iii) once (i) and (ii)
    hold.

    The pairs reach every label of ``sc.basis``, so A is extended to the
    full basis once per call, and B is the deformation's own on the labels
    of A and D of the extension elsewhere."""
    if N < 2:
        return {}
    sc = D.base.sc
    A = extend_matrices(D.A, sc.recipes)
    B = {label: D.B[label] if label in D.A else D.along(mat)
         for label, mat in A.items()}
    out = {LINEARIZED: bracket_violations(
        sc.basis, sc.generators, sc.table, B,
        lambda la, lb, pa, pb: sbracket(pa, pb, A[la], B[lb])
        + sbracket(pa, pb, B[la], A[lb]))}
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
    caller passes its own binding of it.  Which of (ii) and (iii) apply is
    read off the index of the coupling matrix C.  B is D(A) by construction
    (premise P1), so where (i) has no violation and, where C^2 != 0, every
    A is affine along D (premise P2), the derivation lemma of ``Deformation``
    proves (ii) and (iii) on every pair, and they are reported as passing
    without a product.
    Otherwise they are computed by ``derivative_report``, so every failing
    item, count and locator is that of the direct path; where (i) fails,
    their items name it as the premise under which the generator pairs
    imply all pairs."""
    D, N = module.deformation, module.index
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
    """Block module I (x) A + C (x) B of a deformation: base blocks on the
    diagonal, derivative blocks coupled by the parameter-free N x N
    coupling matrix C.  A replication's C carries its couplings on the
    first superdiagonal, and a twist's is J_n(0).  Which first-order
    identities apply and the Jordan profile are read off C's nilpotency
    index; a block matrix is built only by a reader that needs it."""

    deformation: Deformation
    coupling: PolyMatrix          # C
    nu: tuple | None              # twist direction, None for pure replications

    @property
    def base(self) -> KacModule:
        return self.deformation.base

    @property
    def params(self) -> tuple:
        return self.base.params

    @property
    def N(self) -> int:
        return self.coupling.rows

    @cached_property
    def index(self) -> int:
        """The nilpotency index of C, the least k with C^k = 0."""
        _, nil = self.coupling.integer_term()
        index, power = 1, nil
        while power:
            index += 1
            if index > self.N:
                raise InternalConsistencyError(
                    "coupling matrix is not nilpotent")
            power = integer_product(power, nil)
        return index

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

    def block_matrix(self, a: PolyMatrix | None,
                     b: PolyMatrix | None) -> PolyMatrix:
        """I (x) a + C (x) b, a part given as None left out."""
        identity = (1, {t: {t: 1} for t in range(self.N)})
        parts = [(w, m) for w, m in ((identity, a),
                                     (self.coupling.integer_term(), b))
                 if m is not None]
        return kronecker_sum(self.N, self.base.dim, self.params, parts)


def _superdiagonal(values: tuple) -> PolyMatrix:
    """The square matrix with values on its first superdiagonal."""
    N = len(values) + 1
    return PolyMatrix(N, N, (), {(t, t + 1): x for t, x in enumerate(values)})


def replicate(K: KacModule, spec: ReplicationSpec) -> ReplicatedModule:
    """N stacked copies coupled through u' and the identity on Y, with C
    the superdiagonal of the couplings."""
    return ReplicatedModule(odd_derivative(K), _superdiagonal(spec.lambdas),
                            None)


def twist(K: KacModule, spec: TwistSpec) -> ReplicatedModule:
    """K(L x J_n(nu)): n copies coupled through the nu-directional
    derivative, with C = J_n(0)."""
    if len(spec.nu) == 2 and "c" not in K.params:
        raise InputError("nu must have one component on sl, which has no "
                         f"z0 direction; got {[str(x) for x in spec.nu]}")
    return ReplicatedModule(deformation(K, *spec.nu),
                            _superdiagonal((1,) * (spec.n - 1)), spec.nu)


# -- invariants of the block modules ------------------------------------------

def jordan_profile(module: ReplicatedModule,
                   bindings: Mapping[str, Fraction],
                   h_coeffs: Mapping[GenLabel, Fraction]) -> dict:
    """Exact minimal polynomial degree of the Cartan element
    h = sum h_coeffs[label] * label on every generalized weight space of a
    block module, after binding the symbolic parameters, read off its
    coupling matrix C.

    The block matrix of h is I (x) A_h + C (x) B_h.  At the bindings,
    B_h is read as mu I for a scalar mu, and A_h must be diagonal with one
    value per class of equal shifts of K (equal shifts are equal weights,
    see ``weight_spaces``).  Then h minus its scalar is mu C (x) I on every
    weight space, and its degree there is the nilpotency index of mu C: 1
    where mu = 0, else the index of C.  Both premises are checked in
    O(nnz) at base dimension, and only B of the labels of h_coeffs is
    derived; a failed premise raises InternalConsistencyError naming it.
    An unbound parameter raises ParameterizedEntryError from
    ``weight_spaces``."""
    D = module.deformation
    K = D.base
    spaces = weight_spaces(K, bindings)

    def bound(matrices: Mapping) -> dict:
        """The integer rows of h's matrix in ``matrices`` at the bindings,
        over their denominator."""
        return combination([(coeff, matrices[label], None)
                            for label, coeff in h_coeffs.items()]
                           ).substitute(bindings).integer_term()[1]

    rows = bound(D.B)
    mu = rows.get(0, {}).get(0, 0)
    if rows != ({i: {i: mu} for i in range(K.dim)} if mu else {}):
        raise InternalConsistencyError(
            "Jordan profile premise failed: B_h is not a scalar times I at "
            "the bindings")
    rows = bound(D.A)
    value: dict = {}
    for pos, shift in enumerate(K.shifts):
        row = rows.get(pos, {})
        x = row.get(pos, 0)
        if row.keys() - {pos} or value.setdefault(shift, x) != x:
            raise InternalConsistencyError(
                "Jordan profile premise failed: A_h is not diagonal with one "
                "value per weight space at the bindings")
    degree = module.index if mu else 1
    return {weight: degree for weight in spaces}
