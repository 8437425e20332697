"""The Heisenberg-type superalgebra H = g_{-1} + h' + g_1 and its action on
twisted Kac modules.

H keeps only the odd generators and the centre h' of the even subalgebra;
the sole nonzero brackets are [a_-, a_+] = iota'([a_-, a_+]), the projection
of the contraction onto h'.  Scaling the twist's coupling matrix C = J_n(0)
by a formal parameter t gives a family rho_t = I (x) A + t C (x) B of
representations, affine in t; the assignment phi = (rho_0 on lowering,
d/dt on h' and raising) is itself a representation of H, and coincides
with the Kac module of H induced from L x J_n(nu) with trivial h' action
on L.  As phi is
I (x) A on the lowering part and C (x) B elsewhere, it and the checks on
rho_t are read off the twist's deformation, and rho_t is never built.
"""

from __future__ import annotations

from fractions import Fraction

from superkac.algebra import (GenLabel, StructureConstants,
                              bracket_violations, violations_report)
from superkac.exact import PolyMatrix, integer_rref, kronecker_sum
from superkac.kacmod import induce_core
from superkac.matryoshka import ReplicatedModule, derivative_report
from superkac.record import Record
from superkac.report import VerificationReport


class HeisenbergSpec(Record):
    """Bracket table of H: odd pair contractions land in h', all else zero."""

    base: StructureConstants
    labels: tuple                 # u_1..u_P, v_1..v_P, y (, z0)
    hprime: tuple
    table: dict                   # (la, lb) -> {h' label: Fraction}


def build_heisenberg(sc: StructureConstants) -> HeisenbergSpec:
    hprime = [lab for lab in sc.basis if lab.kind in ("y", "z0")]
    P = sc.spec.odd_count
    odd = [GenLabel("u", i) for i in range(1, P + 1)] + \
          [GenLabel("v", i) for i in range(1, P + 1)]
    labels = tuple(odd + hprime)

    table = {}
    for i in range(1, P + 1):
        for j in range(1, P + 1):
            contraction = sc.bracket(GenLabel("u", i), GenLabel("v", j))
            projected = {lab: coeff for lab, coeff in contraction.items()
                         if lab in hprime and coeff != 0}
            if projected:
                # anticommutators are symmetric, so both orders carry it
                table[(GenLabel("u", i), GenLabel("v", j))] = projected
                table[(GenLabel("v", j), GenLabel("u", i))] = projected
    return HeisenbergSpec(base=sc, labels=labels, hprime=tuple(hprime),
                          table=table)


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


def affine_in_t_report(twist: ReplicatedModule) -> VerificationReport:
    """rho_t = I (x) A + t C (x) B is affine in t by its form; t reaches a
    generator exactly where its derivative B is nonzero."""
    report = VerificationReport("rho_t affine in t")
    B = twist.deformation.B
    for label in sorted(twist.base.matrices, key=str):
        if label.kind in ("h", "e", "f", "v") and not B[label].is_zero:
            report.add_fail("t-dependence location",
                            f"{label} gained a t term")
            return report
    report.add_pass("t appears only through h' and the odd raising part")
    return report


class HModule(Record):
    """Matrices of the H generators on L x J_n(nu) x Lambda(g_-1)."""

    twist: ReplicatedModule
    H: HeisenbergSpec
    matrices: dict

    @property
    def dim(self) -> int:
        return self.twist.dim

    @property
    def params(self) -> tuple:
        return self.twist.params


def phi_map(twist: ReplicatedModule, H: HeisenbergSpec) -> HModule:
    """phi(a_-) = rho_0(a_-) = I (x) A and, on h' and the raising part,
    phi = d/dt rho_t = C (x) B, with C = J_n(0) the twist's coupling
    matrix."""
    D = twist.deformation
    matrices = {label: twist.block_matrix(D.A[label], None)
                if label.kind == "v" else twist.block_matrix(None, D.B[label])
                for label in H.labels}
    return HModule(twist=twist, H=H, matrices=matrices)


def check_phi_representation(phi: HModule) -> VerificationReport:
    """Every superbracket of phi matrices equals its H bracket expansion.

    All pairs are checked: [H, H] lies in h', so a generating set of H
    holds every odd label and leaves out at most the h' labels."""
    H = phi.H
    violations = bracket_violations(H.labels, H.labels, H.table,
                                    phi.matrices)
    return violations_report("phi is an H-representation",
                             "H bracket table under phi", H.labels, H.labels,
                             violations)


def mixed_derivative_report(twist: ReplicatedModule) -> VerificationReport:
    """[rho_t(a), rho'_t(b)] + [rho'_t(a), rho_t(b)] = rho'_t([a, b]) exactly,
    over every ordered pair of the full basis.

    With rho_t = I (x) A + t C (x) B the left side is
    C (x) ([A_a, B_b] + [B_a, A_b]) + 2t C^2 (x) [B_a, B_b], so the
    identity is checked as (ii) and, where C^2 != 0, (iii) at base
    dimension.  They are computed directly: the derivation lemma of
    ``Deformation`` needs (i), which the heisenberg verb does not run, and
    reading (ii) and (iii) off it would change this report's item and its
    pinned output.  (ii) and (iii) on the generator pairs give them on all
    pairs only where (i) holds, so the report names (i) as that premise."""
    return derivative_report(twist.deformation, twist.index,
                             "t-derivative of the representation property",
                             "the base relations, which verify checks")


def _j_shift(n: int, base_dim: int, params: tuple, scale: Fraction) -> PolyMatrix:
    """scale * (shift across J layers) tensor identity on the base."""
    return kronecker_sum(n, base_dim, params, [
        ((scale.denominator, {j - 1: {j: scale.numerator}
                              for j in range(1, n)}),
         PolyMatrix.identity(base_dim, params))])


def induce_heisenberg(H: HeisenbergSpec, base_dim: int, n: int, nu: tuple,
                      params: tuple) -> tuple:
    """K_H(L'; n; nu): direct wedge induction over H with the same
    conventions as the g-side Kac module, nu = (nu_y, nu_c).  Returns
    (basis, matrices)."""
    jdim = n * base_dim
    base_mats = {GenLabel("y"): _j_shift(n, base_dim, params, nu[0])}
    if GenLabel("z0") in H.hprime:
        base_mats[GenLabel("z0")] = _j_shift(n, base_dim, params, nu[1])
    uv_exp = {}
    P = H.base.spec.odd_count
    for i in range(1, P + 1):
        for j in range(1, P + 1):
            expansion = H.table.get((GenLabel("u", i), GenLabel("v", j)))
            if expansion:
                uv_exp[(i, j)] = tuple(expansion.items())
    return induce_core(P, params, jdim, list(H.hprime), base_mats, {}, uv_exp)


def kh_in_phi_basis(phi: HModule) -> dict:
    """The directly induced K_H matrices in the phi basis, where the phi
    vector (J layer j, odd subset S, base vector l) is the K_H vector
    (S, J layer j, base vector l).

    The change of basis is a permutation, so each stored term is moved by
    relabelling its rows and columns, which keeps it canonical."""
    T = phi.twist
    K, dL = T.base, T.base.L.dim
    basis_kh, mats_kh = induce_heisenberg(phi.H, dL, T.N, T.deformation.nu,
                                          phi.params)
    kh_index = {vector: index for index, vector in enumerate(basis_kh)}
    target = [0] * len(basis_kh)          # K_H index -> phi index
    phi_vectors = ((subset, j * dL + l) for j in range(T.N)
                   for subset, l in K.basis)
    for index, vector in enumerate(phi_vectors):
        target[kh_index[vector]] = index
    return {label: PolyMatrix._of(mat.rows, mat.cols, mat.params, {
        exps: (den, {target[r]: {target[c]: x for c, x in row.items()}
                     for r, row in rows.items()})
        for exps, (den, rows) in mat.terms.items()})
        for label, mat in mats_kh.items()}


def lowering_rank(phi: HModule, generating: list) -> int:
    """Rank of the vectors v_S g, g in ``generating`` and S any odd subset,
    with v_S = v_s1 v_{S - s1} on the generating columns, layer by layer."""
    subsets = [subset for subset, l in phi.twist.base.basis if l == 0]
    lowered = {(): PolyMatrix.identity(phi.dim, phi.params).submatrix(
        range(phi.dim), generating)}
    for subset in subsets[1:]:
        lowered[subset] = (phi.matrices[GenLabel("v", subset[0])]
                           @ lowered[subset[1:]])
    # block k holds the numerators of lowered[subsets[k]] at column offset
    # k * width: scaling a block's columns by its denominator keeps the rank
    width = len(generating)
    stacked: dict = {}
    for k, subset in enumerate(subsets):
        for r, row in lowered[subset].integer_term()[1].items():
            stacked.setdefault(r, {}).update(
                (k * width + c, x) for c, x in row.items())
    return len(integer_rref(stacked.values())[0])


def compare_with_KH(phi: HModule) -> VerificationReport:
    """Structural isomorphism of phi with the directly induced K_H.

    Under the basis identification of kh_in_phi_basis every generator
    matrix must agree exactly.  Also checks free generation over the odd
    lowering operators, the vanishing of phi(a_+) on the generating
    subspace, and the h' shift across J layers.
    """
    report = VerificationReport("phi vs directly induced K_H")
    T = phi.twist
    K, H = T.base, phi.H
    n, D, dL = T.N, K.dim, K.L.dim
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
    nu_y, nu_c = T.deformation.nu
    for label in H.hprime:
        scale = nu_y if label.kind == "y" else nu_c
        expected = _j_shift(n, D, phi.params, scale)
        if phi.matrices[label] != expected:
            shift_ok = False
            report.add_fail("h' acts by the nu shift across J layers",
                            f"{label}")
    if shift_ok:
        report.add_pass("h' acts by nu(h) times the J-layer shift")
    return report
