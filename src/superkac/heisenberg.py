"""The Heisenberg-type superalgebra H = g_{-1} + h' + g_1 and its action on
twisted Kac modules.

H keeps only the odd generators and the centre h' of the even subalgebra;
the sole nonzero brackets are [a_-, a_+] = iota'([a_-, a_+]), the projection
of the contraction onto h'.  Scaling the twist superdiagonal by a formal
parameter t gives a family rho_t of representations, affine in t; the
assignment phi = (rho_0 on lowering, d/dt on h' and raising) is itself a
representation of H, and coincides with the Kac module of H induced from
L x J_n(nu) with trivial h' action on L.
"""

from __future__ import annotations

from fractions import Fraction

from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              StructureConstants, bracket_violations, sbracket,
                              violations_report)
from superkac.exact import (ParamPoly, PolyMatrix, kronecker_sum,
                            rational_linear_solve)
from superkac.kacmod import KacModule, induce_core
from superkac.matryoshka import (Deformation, TwistSpec, deformation,
                                 derivative_report)
from superkac.record import Record
from superkac.report import VerificationReport


class HeisenbergSpec(Record):
    """Bracket table of H: odd pair contractions land in h', all else zero."""

    base: StructureConstants
    labels: tuple                 # u_1..u_P, v_1..v_P, y (, z0)
    hprime: tuple
    parity: dict
    table: dict                   # (la, lb) -> {h' label: Fraction}
    k: Fraction


def build_heisenberg(sc: StructureConstants) -> HeisenbergSpec:
    hprime = [GenLabel("y")]
    if sc.spec.flavor == "gl":
        hprime.append(GenLabel("z0"))
    P = sc.spec.odd_count
    odd = [GenLabel("u", i) for i in range(1, P + 1)] + \
          [GenLabel("v", i) for i in range(1, P + 1)]
    labels = tuple(odd + hprime)
    parity = {lab: (1 if lab.kind in ("u", "v") else 0) for lab in labels}

    table = {}
    for i in range(1, P + 1):
        for j in range(1, P + 1):
            projected = {lab: coeff for lab, coeff in sc.d[(i, j)].items()
                         if lab in hprime and coeff != 0}
            if projected:
                # anticommutators are symmetric, so both orders carry it
                table[(GenLabel("u", i), GenLabel("v", j))] = projected
                table[(GenLabel("v", j), GenLabel("u", i))] = projected
    return HeisenbergSpec(base=sc, labels=labels, hprime=tuple(hprime),
                          parity=parity, table=table, k=sc.k)


def heisenberg_structure_report(H: HeisenbergSpec) -> VerificationReport:
    """Two-step nilpotency of the H bracket, from which the graded Jacobi
    identity follows (each of its terms is a double bracket), and
    [u_i, u_j] = 0 for i != j."""
    report = VerificationReport(f"Heisenberg bracket table over {H.base.spec}")
    for (la, lb), expansion in H.table.items():
        for target in expansion:
            for lc in H.labels:
                if H.table.get((target, lc)) or H.table.get((lc, target)):
                    report.add_fail("two-step nilpotency",
                                    f"[[{la},{lb}],{lc}]")
                    return report
    report.add_pass("all double brackets vanish (two-step nilpotent)")
    for i in range(1, H.base.spec.odd_count + 1):
        for j in range(1, H.base.spec.odd_count + 1):
            if i != j and H.table.get((GenLabel("u", i), GenLabel("u", j))):
                report.add_fail("odd raising part commutes", f"(u_{i},u_{j})")
                return report
    report.add_pass("[g1, g1] = [g-1, g-1] = 0 and [h', a] = 0 by table shape")
    return report


class RhoFamily(Record):
    """The twisted module with its superdiagonal scaled by a formal t."""

    base: KacModule
    spec: TwistSpec
    t_name: str
    params: tuple
    deformation: Deformation
    matrices: dict

    @property
    def dim(self) -> int:
        return self.spec.n * self.base.dim


def rho_family(K: KacModule, spec: TwistSpec, t_name: str = "t") -> RhoFamily:
    if t_name in K.params:
        raise InputError(f"parameter {t_name!r} already in use")
    D = deformation(K, spec.nu_y, spec.nu_c)
    params = K.params + (t_name,)
    t = ParamPoly.var(params, t_name)
    return RhoFamily(base=K, spec=spec, t_name=t_name, params=params,
                     deformation=D,
                     matrices=D.materialize([t] * (spec.n - 1), params))


def affine_in_t_report(rho: RhoFamily) -> VerificationReport:
    report = VerificationReport("rho_t affine in t")
    for label, mat in sorted(rho.matrices.items(), key=lambda kv: str(kv[0])):
        deg = mat.degree(rho.t_name)
        if deg > 1:
            report.add_fail("degree in t at most 1", f"{label}", str(deg))
            return report
    report.add_pass("every generator matrix has degree <= 1 in t")
    report_t0 = all(
        rho.matrices[label].coefficient(rho.t_name, 1).is_zero
        for label in rho.matrices if label.kind in ("h", "e", "f", "v"))
    if report_t0:
        report.add_pass("t appears only through h' and the odd raising part")
    else:
        report.add_fail("t-dependence location",
                        "a (h,e,f,v) matrix gained a t term")
    return report


class HModule(Record):
    """Matrices of the H generators on L x J_n(nu) x Lambda(g_-1)."""

    rho: RhoFamily
    H: HeisenbergSpec
    params: tuple
    matrices: dict

    @property
    def dim(self) -> int:
        return self.rho.dim


def phi_map(rho: RhoFamily, H: HeisenbergSpec) -> HModule:
    """phi(a_-) = rho_0(a_-), phi(a_+) = rho'_t(a_+), phi(h) = rho'_t(h)."""
    t = rho.t_name
    base_params = rho.base.params
    matrices = {}
    for label in H.labels:
        mat = rho.matrices[label]
        if mat.degree(t) > 1:
            raise InternalConsistencyError(f"rho_t({label}) is not affine in t")
        if label.kind == "v":
            chosen = mat.coefficient(t, 0)
        else:
            chosen = mat.coefficient(t, 1)
        matrices[label] = chosen.with_params(base_params)
    return HModule(rho=rho, H=H, params=base_params, matrices=matrices)


def check_phi_representation(phi: HModule, H: HeisenbergSpec) -> VerificationReport:
    """Every superbracket of phi matrices equals its H bracket expansion.

    All pairs are checked: [H, H] lies in h', so a generating set of H
    holds every odd label and leaves out at most the h' labels."""
    mats = phi.matrices
    violations = bracket_violations(
        H.labels, H.labels, H.parity, H.table,
        lambda la, lb, pa, pb: sbracket(pa, pb, mats[la], mats[lb]), mats)
    return violations_report("phi is an H-representation",
                             "H bracket table under phi", H.labels, H.labels,
                             violations)


def mixed_derivative_report(rho: RhoFamily) -> VerificationReport:
    """[rho_t(a), rho'_t(b)] + [rho'_t(a), rho_t(b)] = rho'_t([a, b]) exactly,
    over every ordered pair of the full basis.

    With rho_t = I (x) A + t S (x) B the left side is
    S (x) ([A_a, B_b] + [B_a, A_b]) + 2t S^2 (x) [B_a, B_b], so the identity
    is checked as (ii) and, for n >= 3, (iii) at base dimension.  They are
    computed directly: the derivation lemma of ``Deformation`` needs (i),
    which this check does not otherwise compute and which costs more than
    (ii)."""
    return derivative_report(rho.deformation, rho.spec.n,
                             "t-derivative of the representation property")


def _j_shift(n: int, base_dim: int, params: tuple, scale: Fraction) -> PolyMatrix:
    """scale * (shift across J layers) tensor identity on the base."""
    return kronecker_sum(n, base_dim, params, [
        ((scale.denominator, {j - 1: {j: scale.numerator}
                              for j in range(1, n)}),
         PolyMatrix.identity(base_dim, params))])


def induce_heisenberg(H: HeisenbergSpec, base_dim: int, spec: TwistSpec,
                      params: tuple) -> tuple:
    """K_H(L'; n; nu): direct wedge induction over H with the same
    conventions as the g-side Kac module.  Returns (basis, matrices)."""
    n = spec.n
    jdim = n * base_dim
    base_mats = {GenLabel("y"): _j_shift(n, base_dim, params, spec.nu_y)}
    if GenLabel("z0") in H.hprime:
        base_mats[GenLabel("z0")] = _j_shift(n, base_dim, params, spec.nu_c)
    uv_exp = {}
    P = H.base.spec.odd_count
    for i in range(1, P + 1):
        for j in range(1, P + 1):
            expansion = H.table.get((GenLabel("u", i), GenLabel("v", j)))
            if expansion:
                uv_exp[(i, j)] = tuple(expansion.items())
    basis, matrices = induce_core(P, params, jdim, list(H.hprime),
                                  base_mats, {}, uv_exp)
    return basis, matrices


def kh_in_phi_basis(phi: HModule) -> dict:
    """The directly induced K_H matrices in the phi basis, where the phi
    vector (J layer j, odd subset S, base vector l) is the K_H vector
    (S, J layer j, base vector l)."""
    K, dL = phi.rho.base, phi.rho.base.L.dim
    basis_kh, mats_kh = induce_heisenberg(phi.H, dL, phi.rho.spec, phi.params)
    kh_index = {vector: index for index, vector in enumerate(basis_kh)}
    source = [kh_index[(subset, j * dL + l)]
              for j in range(phi.rho.spec.n) for subset, l in K.basis]
    return {label: mat.submatrix(source, source)
            for label, mat in mats_kh.items()}


def lowering_rank(phi: HModule, generating: list) -> int:
    """Rank of the vectors v_S g, g in ``generating`` and S any odd subset,
    with v_S = v_s1 v_{S - s1} on the generating columns, layer by layer."""
    subsets = [subset for subset, l in phi.rho.base.basis if l == 0]
    lowered = {(): PolyMatrix.identity(phi.dim, phi.params).submatrix(
        range(phi.dim), generating)}
    for subset in subsets[1:]:
        lowered[subset] = (phi.matrices[GenLabel("v", subset[0])]
                           @ lowered[subset[1:]])
    width = len(generating)
    return rational_linear_solve(PolyMatrix.from_blocks(
        phi.dim, width * len(subsets), phi.params,
        [(0, k * width, lowered[s]) for k, s in enumerate(subsets)])).rank


def compare_with_KH(phi: HModule) -> VerificationReport:
    """Structural isomorphism of phi with the directly induced K_H.

    Under the basis identification of kh_in_phi_basis every generator
    matrix must agree exactly.  Also checks free generation over the odd
    lowering operators, the vanishing of phi(a_+) on the generating
    subspace, and the h' shift across J layers.
    """
    report = VerificationReport("phi vs directly induced K_H")
    rho = phi.rho
    K, H, spec = rho.base, phi.H, rho.spec
    n, D, dL = spec.n, K.dim, K.L.dim
    P = K.odd_count

    if phi.dim != (2 ** P) * n * dL:
        report.add_fail("dimension 2^P * n * dim L", str(phi.dim))
        return report
    report.add_pass(f"dimension {phi.dim} = 2^{P} * {n} * {dL}")

    agree = True
    mats_kh = kh_in_phi_basis(phi)
    for label in sorted(phi.matrices, key=str):
        if mats_kh[label] != phi.matrices[label]:
            report.add_fail("generator matrices agree", f"{label}")
            agree = False
    if agree:
        report.add_pass("all generator matrices agree under the canonical "
                        "basis identification")

    # generating subspace on the phi side: subset = empty, any (j, l)
    generating = [j * D + l for j in range(n) for l in range(dL)]
    rank = lowering_rank(phi, generating)
    if rank == phi.dim:
        report.add_pass("free generation from L x J_n under the odd "
                        "lowering action (full wedge rank)")
    else:
        report.add_fail("free generation rank", f"{rank} < {phi.dim}")

    kills = all(phi.matrices[GenLabel("u", i)].submatrix(
        range(phi.dim), generating).is_zero for i in range(1, P + 1))
    if kills:
        report.add_pass("phi(a_+) annihilates the generating subspace")
    else:
        report.add_fail("phi(a_+) on generating subspace", "nonzero column")

    shift_ok = True
    for label in H.hprime:
        scale = spec.nu_y if label.kind == "y" else spec.nu_c
        expected = _j_shift(n, D, phi.params, scale)
        if phi.matrices[label] != expected:
            shift_ok = False
            report.add_fail("h' acts by the nu shift across J layers",
                            f"{label}")
    if shift_ok:
        report.add_pass("h' acts by nu(h) times the J-layer shift")

    consts = [lab for lab in rho.matrices if lab.kind in ("h", "e", "f")]
    flat = all(rho.matrices[lab].coefficient(rho.t_name, 1).is_zero
               for lab in consts)
    if flat:
        report.add_pass("the semisimple even part has vanishing t-derivative")
    else:
        report.add_fail("semisimple even part t-derivative", "nonzero")
    return report
