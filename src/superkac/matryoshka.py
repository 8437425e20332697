"""Indecomposable nested N-replications of Kac modules.

Because the module matrices are affine in the odd label b (and the gl
central charge c), they have an exact first-order derivative B along any
direction nu on the centre h' of the even subalgebra, with the hypercharge
part taken through y0 = (b - d.a)/k.  Placing the base matrices A on the
block diagonal and B, scaled by couplings, on the first block superdiagonal
gives for every N a representation on N stacked copies of the module that
cannot be split.  The pure hypercharge direction with couplings lambda_t is
the replication, whose hypercharge acts by Jordan blocks of size N on every
weight space; a general direction with unit couplings is the twist by the
indecomposable h'-module J_n(nu); a formal coupling t gives the Heisenberg
family rho_t.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import lcm

from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              bracket_violations, check_super_relations,
                              extend_matrices, sbracket, violations_report)
from superkac.exact import (ParamPoly, PolyMatrix, combination,
                            integer_product, kronecker_sum)
from superkac.kacmod import KacModule, weight_spaces
from superkac.record import Record
from superkac.report import VerificationReport


class Deformation(Record):
    """A Kac module's matrices A with their derivative B along nu on h'.

    A covers the full basis (nonsimple root vectors via their recipes) and
    B = D(A) for the derivation D = nu_y * k * d/db + nu_c * d/dc, where
    nu = (nu_y, nu_c).  With S the block shift carrying the couplings,
    X = I (x) A + S (x) B satisfies the superbracket relations exactly
    when, at base dimension,
      (i)   the base relations hold, symbolically in (b, c);
      (ii)  [A_a, B_b] + [B_a, A_b] = sum_t f_ab^t B_t  (for N >= 2);
      (iii) [B_a, B_b] = 0  (for N >= 3, where S^2 is nonzero).

    Derivation lemma: with R_ab = [A_a, A_b] - sum_t f_ab^t A_t the
    residual of (i), the residual of (ii) is D(R_ab) by Leibniz, as B = D(A)
    (premise P1).  Where no term of any A has degree above 1 along D
    (premise P2), D(B) = 0, and the residual of (iii) is D^2(R_ab) / 2.  So
    wherever (i) holds symbolically and the premises hold, (ii) and (iii)
    hold too.  Both premises are checked in O(nnz) by ``is_derivative``
    and ``affine_along``; ``block_relations_report`` relies on them.
    """

    base: KacModule
    nu: tuple                     # (nu_y, nu_c), the direction of D
    A: dict                       # GenLabel -> PolyMatrix
    B: dict                       # GenLabel -> PolyMatrix

    def along(self, mat: PolyMatrix) -> PolyMatrix:
        """D(mat), the derivative of a matrix over the base params along
        this deformation's direction."""
        return _along(self.base.sc.k, self.nu, mat)

    def is_derivative(self) -> bool:
        """Premise P1: B covers the labels of A, and each B is D(A)."""
        return self.B.keys() == self.A.keys() and all(
            self.B[label] == self.along(mat) for label, mat in self.A.items())

    def affine_along(self) -> bool:
        """Premise P2: no term of any A has degree above 1 along D, i.e.
        in the parameters whose coefficient in D is nonzero."""
        moved = [self.base.params.index(name)
                 for name, x in zip(("b", "c"), self.nu) if x]
        return all(sum(exps[i] for i in moved) <= 1
                   for mat in self.A.values() for exps in mat.terms)

    @property
    def u_prime(self) -> dict:
        """Odd index -> the u-part of B."""
        return {lab.index: mat for lab, mat in self.B.items()
                if lab.kind == "u"}

    def materialize(self, couplings: Sequence, params: tuple,
                    labels=None) -> dict:
        """Block matrices I (x) A + S (x) B over ``params`` of the given
        labels, by default the generator surface, where S carries
        couplings[t] from copy t+1 to copy t; a coupling may be a rational
        or a ParamPoly over ``params``."""
        N = len(couplings) + 1
        diagonal = (1, {t: {t: 1} for t in range(N)})
        # S splits into a shift of the rational couplings, which scale B,
        # and a shift of ones per distinct polynomial coupling c, with c B;
        # the rational couplings share one denominator
        den = lcm(*(c.denominator for c in couplings
                    if not isinstance(c, ParamPoly)))
        shifts: dict = {}
        for t, coupling in enumerate(couplings):
            if isinstance(coupling, ParamPoly):
                shifts.setdefault(coupling, (1, {}))[1][t] = {t + 1: 1}
            else:
                shifts.setdefault(None, (den, {}))[1][t] = {
                    t + 1: int(coupling * den)}
        matrices = {}
        for label in self.base.matrices if labels is None else labels:
            deriv = self.B[label].with_params(params)
            parts = [(diagonal, self.A[label])]
            if not deriv.is_zero:
                parts += [(shift, deriv if c is None else deriv.scale(c))
                          for c, shift in shifts.items()]
            matrices[label] = kronecker_sum(N, self.base.dim, params, parts)
        return matrices


def _along(k, nu: tuple, mat: PolyMatrix) -> PolyMatrix:
    """D(mat) for D = nu_y * k * d/db + nu_c * d/dc, nu = (nu_y, nu_c)."""
    nu_y, nu_c = nu
    return combination(
        [(k * nu_y, mat.derivative("b"), None)]
        + ([(nu_c, mat.derivative("c"), None)] if nu_c else []))


def deformation(K: KacModule, nu_y, nu_c=Fraction(0)) -> Deformation:
    """The first-order deformation of K along nu = (nu_y, nu_c)."""
    if nu_c and "c" not in K.params:
        raise InputError("a z0 twist direction needs flavor gl")
    nu = (Fraction(nu_y), Fraction(nu_c))
    A = extend_matrices(K.matrices, K.sc.recipes)
    return Deformation(base=K, nu=nu, A=A,
                       B={label: _along(K.sc.k, nu, mat)
                          for label, mat in A.items()})


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
            sc.basis, sc.generators, sc.parity, sc.table,
            lambda la, lb, pa, pb: sbracket(pa, pb, A[la], B[lb])
            + sbracket(pa, pb, B[la], A[lb]), B)
    if N >= 3:
        out[SQUARE] = bracket_violations(
            sc.basis, sc.generators, sc.parity, {},
            lambda la, lb, pa, pb: sbracket(pa, pb, B[la], B[lb]), B)
    return out


def _identities_report(D: Deformation, title: str,
                       violations: dict) -> VerificationReport:
    """One check item per identity of {name: violating pairs}."""
    report = VerificationReport(title)
    for name, found in violations.items():
        report.extend(violations_report(title, name, D.base.sc.basis,
                                        D.base.sc.generators, found))
    return report


def derivative_report(D: Deformation, N: int,
                      title: str) -> VerificationReport:
    """One check item per identity of derivative_violations."""
    return _identities_report(D, title, derivative_violations(D, N))


def block_relations_report(module: ReplicatedModule,
                           check=check_super_relations) -> VerificationReport:
    """The relations of an N-fold block module of a deformation, verified
    at base dimension as (i) the base relations and (ii)-(iii).

    (i) is ``check(A, sc, title)``, the one relation checker unless a
    caller passes its own binding of it.  Where (i) has no violation, B is
    D(A) (premise P1) and, for N >= 3, every A is affine along D (premise
    P2), the derivation lemma of ``Deformation`` proves (ii) and (iii) on
    every pair, and they are reported as passing without a product.
    Otherwise they are computed by ``derivative_report``, so every failing
    item, count and locator is that of the direct path."""
    D, N = module.deformation, module.N
    report = check(D.A, D.base.sc, "base relations")
    if N == 1:
        return report
    title = "first-order relations"
    if report.ok and D.is_derivative() and (N < 3 or D.affine_along()):
        report.extend(_identities_report(
            D, title, {name: [] for name in (LINEARIZED, SQUARE)[:N - 1]}))
    else:
        report.extend(derivative_report(D, N, title))
    return report


# -- block modules ------------------------------------------------------------

class ReplicationSpec(Record):
    N: int
    lambdas: tuple

    def _validate(self):
        if self.N < 1:
            raise InputError("replication needs N >= 1")
        lams = tuple(Fraction(x) for x in self.lambdas)
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
        nu = tuple(Fraction(x) for x in self.nu)
        if len(nu) not in (1, 2):
            raise InputError("nu must have one (sl) or two (gl) components")
        if all(x == 0 for x in nu):
            raise InputError("nu = 0 rejected: the twist would be trivial")
        object.__setattr__(self, "nu", nu)

    @property
    def nu_y(self) -> Fraction:
        return self.nu[0]

    @property
    def nu_c(self) -> Fraction:
        return self.nu[1] if len(self.nu) > 1 else Fraction(0)


class ReplicatedModule(Record):
    """N x N block module of a deformation: base blocks on the diagonal,
    derivative blocks scaled by the couplings on the first superdiagonal.
    The block matrices are built on first use."""

    deformation: Deformation
    couplings: tuple              # per-level scalars multiplying the superdiagonal
    nu: tuple | None              # twist direction, None for pure replications

    @property
    def base(self) -> KacModule:
        return self.deformation.base

    @property
    def N(self) -> int:
        return len(self.couplings) + 1

    @property
    def params(self) -> tuple:
        return self.base.params

    @cached_property
    def matrices(self) -> dict:
        return self.deformation.materialize(self.couplings, self.params)

    def matrices_of(self, labels) -> dict:
        """The block matrices of some labels; until ``matrices`` is built,
        only these are built."""
        if "matrices" in self.__dict__:
            return {label: self.matrices[label] for label in labels}
        return self.deformation.materialize(self.couplings, self.params,
                                            labels)

    @cached_property
    def weights(self) -> tuple:
        return tuple(self.base.weights) * self.N

    @property
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
    return ReplicatedModule(deformation(K, spec.nu_y, spec.nu_c),
                            (Fraction(1),) * (spec.n - 1), spec.nu)


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


# -- invariants of the block modules ------------------------------------------

def diagonal_block(R: ReplicatedModule, label: GenLabel, t: int) -> PolyMatrix:
    copy = range(t * R.base.dim, (t + 1) * R.base.dim)
    return R.matrices[label].submatrix(copy, copy)


def leading_principal_submodule(R: ReplicatedModule) -> dict:
    """Matrices restricted to the first (N-1) copies (the nesting property)."""
    lead = range((R.N - 1) * R.base.dim)
    return {label: mat.submatrix(lead, lead)
            for label, mat in R.matrices.items()}


def cartan_matrix_of(module, h_coeffs: Mapping[GenLabel, Fraction]) -> PolyMatrix:
    """Matrix of a Cartan combination sum h_coeffs[label] * label; a block
    module builds only the labels of h_coeffs."""
    mats = module.matrices_of(h_coeffs) \
        if isinstance(module, ReplicatedModule) else module.matrices
    return combination([(coeff, mats[label], None)
                        for label, coeff in h_coeffs.items()])


def jordan_minpoly_profile(module, bindings: Mapping[str, Fraction],
                           h_coeffs: Mapping[GenLabel, Fraction] | None = None
                           ) -> dict:
    """Exact minimal polynomial degree of a Cartan element on every
    generalized weight space, after binding the symbolic parameters.

    Defaults to the hypercharge.  The degree is the nilpotency index of the
    restriction minus its scalar part; for an N-fold replication with all
    couplings nonzero it equals N wherever the base multiplicity is nonzero.
    """
    if h_coeffs is None:
        h_coeffs = {GenLabel("y"): Fraction(1)}
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


# -- self-extension functionals ----------------------------------------------

def upsilon_extract(R: ReplicatedModule) -> dict:
    """The functional mu of a self-extension, read off the 2x2 generalized
    weight action of every Cartan element at the highest weight:
    [[lam(h), mu(h)], [0, lam(h)]]."""
    if R.N != 2:
        raise InputError("upsilon extraction needs an N = 2 self-extension")
    hw = R.base.hw_index
    top = [pos for pos, coord in enumerate(R.weights)
           if coord == R.weights[hw]]
    if len(top) != 2:
        raise InternalConsistencyError(
            f"top generalized weight space has dimension {len(top)}, not 2")
    cartan = [GenLabel("h", i) for i in range(1, R.base.sc.spec.rank + 1)]
    cartan.append(GenLabel("y"))
    if R.base.sc.spec.flavor == "gl":
        cartan.append(GenLabel("z0"))
    mu = {}
    for label in cartan:
        block = R.matrices[label].submatrix(top, top)
        if block.entry(0, 0) != block.entry(1, 1) or not block.entry(1, 0).is_zero:
            raise InternalConsistencyError(
                f"{label} is not upper triangular on the top weight space")
        mu[label] = block.entry(0, 1)
    return mu


class IsoDecision(Record):
    isomorphic: bool
    scale: Fraction | None        # mu = scale * nu when isomorphic
    witness_h: dict | None        # Cartan combination with nu(h)=0 != mu(h)
    witness_weight: tuple | None
    degrees: tuple | None         # minpoly degrees (nu twist, mu twist)


def self_extension_iso_decision(K: KacModule, nu: Sequence, mu: Sequence,
                                n: int,
                                bindings: Mapping[str, Fraction] | None = None
                                ) -> IsoDecision:
    """Twists by proportional directions are isomorphic; otherwise a Cartan
    element annihilating nu but not mu distinguishes the modules through the
    minimal polynomial degrees of its action on a weight space."""
    nu_t = TwistSpec(n, tuple(nu))
    mu_t = TwistSpec(n, tuple(mu))
    ny, nc = nu_t.nu_y, nu_t.nu_c
    my, mc = mu_t.nu_y, mu_t.nu_c
    det = ny * mc - nc * my
    if det == 0:
        scale = None
        for a, b in ((my, ny), (mc, nc)):
            if b != 0:
                scale = a / b
                break
        return IsoDecision(isomorphic=True, scale=scale, witness_h=None,
                           witness_weight=None, degrees=None)

    # h = -nu_c * y + nu_y * z0 satisfies nu(h) = 0 and mu(h) = det != 0.
    witness = {GenLabel("y"): -nc, GenLabel("z0"): ny}
    witness = {lab: coeff for lab, coeff in witness.items() if coeff != 0}
    if GenLabel("z0") in witness and K.spec.flavor != "gl":
        raise InputError("distinguishing the directions needs the gl centre")
    if bindings is None:
        bindings = {"b": Fraction(5, 7)}
        if "c" in K.params:
            bindings = {"b": Fraction(5, 7), "c": Fraction(3, 11)}
    hw_weight = tuple(c.substitute(bindings).constant_value()
                      for c in K.weights[K.hw_index])
    degrees = []
    for tspec in (nu_t, mu_t):
        module = twist(K, tspec)
        profile = jordan_minpoly_profile(module, bindings, witness)
        degrees.append(profile[hw_weight])
    return IsoDecision(isomorphic=False, scale=None, witness_h=witness,
                       witness_weight=hw_weight, degrees=tuple(degrees))
