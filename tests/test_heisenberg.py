"""Heisenberg superalgebra: bracket table, rho_t family, phi, K_H comparison."""

import itertools
from fractions import Fraction

import pytest

from superkac import algebra
from superkac.algebra import (GenLabel, SuperAlgebraSpec,
                              build_fundamental_rep, check_super_relations,
                              extend_matrices, structure_constants)
from superkac.evenrep import build_even_irrep
from block_oracle import (block_matrices, part_over, place_blocks,
                          superdiagonal)
from dense_oracles import dense_linear_solve
from setup_oracles import rational_entries
from superkac.exact import ParamPoly, PolyMatrix
from superkac.heisenberg import (affine_in_t_report, build_heisenberg,
                                 check_phi_representation, compare_with_KH,
                                 heisenberg_structure_report,
                                 induce_heisenberg, kh_in_phi_basis,
                                 lowering_rank, mixed_derivative_report,
                                 phi_map)
from superkac.kacmod import induce
from superkac.matryoshka import (ReplicatedModule, TwistSpec, deformation,
                                 twist)


def build_kac(flavor, m, n, a):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    sc = structure_constants(rep)
    L = build_even_irrep(a, sc)
    return induce(L, sc), sc


QUARTET, SC21 = build_kac("sl", 2, 1, (0,))
GL_TRIV, SCG21 = build_kac("gl", 2, 1, (0,))
GL_A1, _ = build_kac("gl", 2, 1, (1,))

H21 = build_heisenberg(SC21)
HG21 = build_heisenberg(SCG21)

MATRIX = [
    (QUARTET, SC21, H21, TwistSpec(2, (1,))),
    (QUARTET, SC21, H21, TwistSpec(3, (Fraction(-2, 3),))),
    (GL_TRIV, SCG21, HG21, TwistSpec(2, (0, 1))),
    (GL_A1, SCG21, HG21, TwistSpec(2, (2, -3))),
    (GL_A1, SCG21, HG21, TwistSpec(3, (1, 0))),
]


# every (algebra, labels, twist) whose phi the tests build: MATRIX and
# the cases of test_acceptance's criterion 8
PHI_CASES = [("sl", 2, 1, (0,), TwistSpec(2, (1,))),
             ("sl", 2, 1, (0,), TwistSpec(3, (Fraction(-2, 3),))),
             ("gl", 2, 1, (0,), TwistSpec(2, (0, 1))),
             ("gl", 2, 1, (1,), TwistSpec(2, (2, -3))),
             ("gl", 2, 1, (1,), TwistSpec(3, (1, 0))),
             ("gl", 2, 1, (0,), TwistSpec(2, (1, 0))),
             ("gl", 2, 1, (0,), TwistSpec(3, (0, 1))),
             ("sl", 2, 1, (1,), TwistSpec(2, (1,))),
             ("sl", 3, 1, (0, 0), TwistSpec(2, (1,)))]


class TestBracketTable:
    def test_odd_raising_pairs_vanish(self):
        P = SC21.spec.odd_count
        for i, j in itertools.product(range(1, P + 1), repeat=2):
            assert (GenLabel("u", i), GenLabel("u", j)) not in H21.table
            assert (GenLabel("v", i), GenLabel("v", j)) not in H21.table

    def test_contraction_projects_to_hypercharge(self):
        # oracle: apply the centre projection to the full contraction; the
        # semisimple h parts drop, leaving exactly k y (no z0 component)
        for sc, H in ((SC21, H21), (SCG21, HG21)):
            expansion = sc.bracket(GenLabel("u", 1), GenLabel("v", 1))
            projected = {lab: coeff for lab, coeff in expansion.items()
                         if lab.kind in ("y", "z0") and coeff != 0}
            assert projected == {GenLabel("y"): sc.k}
            assert H.table[(GenLabel("u", 1), GenLabel("v", 1))] == projected

    def test_structure_report(self):
        for H in (H21, HG21):
            assert heisenberg_structure_report(H).ok

    def test_two_step_nilpotency_explicit(self):
        # [[u_i, v_j], anything] = 0 since the bracket lands in the centre
        for (la, lb), expansion in H21.table.items():
            for target in expansion:
                for lc in H21.labels:
                    assert (target, lc) not in H21.table
                    assert (lc, target) not in H21.table


def reference_rho_t(T) -> dict:
    """rho_t = I (x) A + t S (x) B of a twist's deformation on its generator
    surface, placed entry by entry over the twist's params and t."""
    D, K = T.deformation, T.base
    params = K.params + ("t",)
    t = ParamPoly.var(params, "t")
    return {label: place_blocks(
        T.dim, T.dim, params,
        [(j * K.dim, j * K.dim, D.A[label], 1) for j in range(T.N)]
        + [(j * K.dim, (j + 1) * K.dim, D.B[label], t)
           for j in range(T.N - 1)])
        for label in K.matrices}


class TestRhoFamily:
    @pytest.mark.parametrize("flavor, m, n, a, tspec", PHI_CASES)
    def test_phi_is_a_t_part_of_rho_t(self, flavor, m, n, a, tspec):
        """phi is rho_t's t^0 part on the lowering part and its t^1 part
        elsewhere; rho_1 is the twist, and t reaches no h, e, f or v."""
        K, sc = build_kac(flavor, m, n, a)
        T = twist(K, tspec)
        phi = phi_map(T, build_heisenberg(sc))
        rho = reference_rho_t(T)
        blocks = block_matrices(T)
        for label, mat in phi.matrices.items():
            power = 0 if label.kind == "v" else 1
            assert part_over(rho[label], K.params, {"t": power}) == mat
        for label, mat in rho.items():
            assert mat.degree("t") <= 1
            assert part_over(mat.substitute({"t": 1}), K.params) == \
                blocks[label]
            if label.kind in ("h", "e", "f", "v"):
                assert part_over(mat, K.params, {"t": 1}).is_zero
        assert affine_in_t_report(T).ok

    def test_affine_in_t(self):
        for K, sc, H, tspec in MATRIX:
            assert affine_in_t_report(twist(K, tspec)).ok

    def test_a_lowering_derivative_fails_the_t_location(self):
        """A b-term in A_v gives v a nonzero derivative B_v = 2k A_v."""
        T = twist(GL_A1, TwistSpec(2, (2, -3)))
        D, v1 = T.deformation, GenLabel("v", 1)
        b = ParamPoly.var(GL_A1.params, "b")
        bad = T.replace(deformation=D.replace(
            A={**D.A, v1: D.A[v1].scale(b)}))
        assert bad.deformation.B[v1] == D.A[v1].scale(2 * GL_A1.sc.k)
        report = affine_in_t_report(bad)
        assert [(item.name, item.location) for item in report.failures] == \
            [("t-dependence location", f"{v1} gained a t term")]


class TestPhi:
    def test_phi_is_h_representation(self):
        for K, sc, H, tspec in MATRIX:
            phi = phi_map(twist(K, tspec), H)
            assert check_phi_representation(phi).ok

    def test_checks_without_a_root_grading_stay_pairwise(self, monkeypatch):
        """The H check and the t-derivative identities give the relation
        checker no root weights, so it never tries the certificate."""
        def refuse(*args):
            raise AssertionError("the certificate was tried")

        monkeypatch.setattr(algebra, "_certified", refuse)
        for K, sc, H, tspec in MATRIX:
            T = twist(K, tspec)
            assert check_phi_representation(phi_map(T, H)).ok
            assert mixed_derivative_report(T).ok

    def test_lowering_part_is_plain_wedge_insertion(self):
        K, H, tspec = GL_TRIV, HG21, TwistSpec(2, (1, 0))
        phi = phi_map(twist(K, tspec), H)
        dim, n = K.dim, tspec.n
        for i in range(1, K.odd_count + 1):
            base = K.matrices[GenLabel("v", i)]
            blocks = phi.matrices[GenLabel("v", i)]
            for j in range(n):
                for (r, c), val in base.entries.items():
                    assert blocks.entry(j * dim + r, j * dim + c) == val

    def test_hprime_shifts_layers(self):
        # phi(h) sends (w x layer j) to nu(h) (w x layer j-1)
        K, H = GL_TRIV, HG21
        tspec = TwistSpec(3, (Fraction(2), Fraction(-5)))
        phi = phi_map(twist(K, tspec), H)
        dim = K.dim
        for lab, scale in ((GenLabel("y"), Fraction(2)),
                           (GenLabel("z0"), Fraction(-5))):
            mat = phi.matrices[lab]
            expected = {}
            for j in range(1, tspec.n):
                for i in range(dim):
                    expected[((j - 1) * dim + i, j * dim + i)] = \
                        ParamPoly.const(K.params, scale)
            assert mat == PolyMatrix(phi.dim, phi.dim, K.params, expected)

    def test_raising_part_kills_generating_subspace(self):
        K, H, tspec = GL_A1, HG21, TwistSpec(2, (1, 1))
        phi = phi_map(twist(K, tspec), H)
        dim = K.dim
        generating = [j * dim + l for j in range(tspec.n)
                      for l in range(K.L.dim)]
        for i in range(1, K.odd_count + 1):
            mat = phi.matrices[GenLabel("u", i)]
            for col in generating:
                assert all(c != col for (r, c) in mat.entries)

    def test_named_bracket_identities(self):
        # [phi(a-), phi(b-)] = 0, [phi(h), phi(a-)] = 0, and the raising
        # plus centre part is abelian
        K, H, tspec = GL_TRIV, HG21, TwistSpec(2, (1, -2))
        phi = phi_map(twist(K, tspec), H)
        P = K.odd_count
        vs = [phi.matrices[GenLabel("v", i)] for i in range(1, P + 1)]
        us = [phi.matrices[GenLabel("u", i)] for i in range(1, P + 1)]
        hs = [phi.matrices[lab] for lab in H.hprime]
        for a, b in itertools.product(vs, vs):
            assert (a @ b + b @ a).is_zero
        for a, b in itertools.product(us, us):
            assert (a @ b + b @ a).is_zero
        for h, v in itertools.product(hs, vs):
            assert (h @ v - v @ h).is_zero
        for h, u in itertools.product(hs, us):
            assert (h @ u - u @ h).is_zero


class TestMixedDerivative:
    def test_identity_on_full_basis(self):
        for K, sc, H, tspec in MATRIX:
            assert mixed_derivative_report(twist(K, tspec)).ok

    def test_generator_pairs_imply_all_pairs_only_given_the_base_relations(
            self):
        """With A[F_3] doubled, (i) fails and (ii) holds on every generator
        pair but not on every pair, so the report's item names (i) as the
        premise of its claim on all pairs."""
        K, sc = build_kac("sl", 3, 1, (1, 1))
        D = deformation(K, Fraction(1)).replace(
            A=extend_matrices(K.matrices, sc.recipes))
        F3 = GenLabel("F", 3)
        bad = D.replace(A={**D.A, F3: D.A[F3].scale(2)})
        assert not check_super_relations(bad.A, sc, "base relations").ok
        (item,) = mixed_derivative_report(
            ReplicatedModule(bad, superdiagonal((1,)), (Fraction(1),))).items
        assert item.passed
        assert item.name.endswith(
            "on all 104 generator pairs; all 15^2 pairs follow given the "
            "base relations, which verify checks")
        A, B = bad.A, bad.B
        full = algebra.bracket_violations(
            sc.basis, sc.basis, sc.table, B,
            lambda la, lb, pa, pb: algebra.sbracket(pa, pb, A[la], B[lb])
            + algebra.sbracket(pa, pb, B[la], A[lb]))
        assert len(full) == 2


def reference_kh_in_phi_basis(phi) -> dict:
    """The K_H matrices moved to the phi basis entry by entry."""
    K = phi.twist.base
    dL = K.L.dim
    basis_kh, mats_kh = induce_heisenberg(phi.H, dL, phi.twist.N,
                                          phi.twist.deformation.nu, phi.params)
    subsets = [subset for subset, l in basis_kh if l == 0]
    perm = []                     # K_H index -> phi index
    for subset, jl in basis_kh:
        j, l = divmod(jl, dL)
        perm.append(j * K.dim + subsets.index(subset) * dL + l)
    return {label: PolyMatrix(phi.dim, phi.dim, phi.params, {
        (perm[r], perm[c]): val for (r, c), val in mat.entries.items()})
        for label, mat in mats_kh.items()}


def reference_lowering_rank(phi, generating) -> int:
    """Rank of the stacked rows v_S g, each one chain of one-column
    products, by the dense elimination."""
    subsets = [subset for subset, l in phi.twist.base.basis if l == 0]
    lowered = [(g, subset) for g in generating for subset in subsets]
    stack = {}
    for row, (g, subset) in enumerate(lowered):
        state = PolyMatrix(phi.dim, 1, phi.params, {(g, 0): 1})
        for s in reversed(subset):
            state = phi.matrices[GenLabel("v", s)] @ state
        for (pos, _), val in state.entries.items():
            stack[(row, pos)] = val.constant_value()
    return dense_linear_solve(stack, len(lowered), phi.dim)[0]


def generating_columns(phi) -> list:
    """(J layer j, empty subset, base vector l) for every j and l."""
    K = phi.twist.base
    return [j * K.dim + l for j in range(phi.twist.N)
            for l in range(K.L.dim)]


def solved_lowering_rank(phi, generating) -> int:
    """The rank of the stacked lowered columns, solved by the dense
    oracle."""
    subsets = [subset for subset, l in phi.twist.base.basis if l == 0]
    lowered = {(): PolyMatrix.identity(phi.dim, phi.params).submatrix(
        range(phi.dim), generating)}
    for subset in subsets[1:]:
        lowered[subset] = (phi.matrices[GenLabel("v", subset[0])]
                           @ lowered[subset[1:]])
    width = len(generating)
    stacked = place_blocks(
        phi.dim, width * len(subsets), phi.params,
        [(0, k * width, lowered[s], 1) for k, s in enumerate(subsets)])
    return dense_linear_solve(rational_entries(stacked), stacked.rows,
                              stacked.cols)[0]


@pytest.mark.parametrize("flavor, m, n, a, tspec", PHI_CASES)
def test_lowering_rank_is_the_solved_rank(flavor, m, n, a, tspec):
    """The rank read off the integer RREF is the rank of the Fraction
    solve, on phi and on phi with v_1 zeroed or halved."""
    K, sc = build_kac(flavor, m, n, a)
    phi = phi_map(twist(K, tspec), build_heisenberg(sc))
    label = GenLabel("v", 1)
    generating = generating_columns(phi)
    for mat in (phi.matrices[label],
                PolyMatrix(phi.dim, phi.dim, phi.params),
                phi.matrices[label].scale(Fraction(1, 2))):
        broken = phi.replace(matrices={**phi.matrices, label: mat})
        assert lowering_rank(broken, generating) == \
            solved_lowering_rank(broken, generating)


class TestCompareWithKH:
    def test_structural_isomorphism(self):
        for K, sc, H, tspec in MATRIX:
            phi = phi_map(twist(K, tspec), H)
            report = compare_with_KH(phi)
            assert report.ok, report.summary()

    def test_block_reads_match_entrywise_reference(self):
        for K, sc, H, tspec in MATRIX:
            phi = phi_map(twist(K, tspec), H)
            assert kh_in_phi_basis(phi) == reference_kh_in_phi_basis(phi)
            generating = generating_columns(phi)
            assert lowering_rank(phi, generating) == \
                reference_lowering_rank(phi, generating) == phi.dim

    def test_corrupted_lowering_rank_matches_reference(self):
        phi = phi_map(twist(GL_A1, TwistSpec(2, (2, -3))), HG21)
        label = GenLabel("v", 1)
        for mat in (PolyMatrix(phi.dim, phi.dim, phi.params),
                    phi.matrices[label].scale(Fraction(1, 2))):
            broken = phi.replace(matrices={**phi.matrices, label: mat})
            generating = generating_columns(broken)
            assert lowering_rank(broken, generating) == \
                reference_lowering_rank(broken, generating)

    @staticmethod
    def _failed_checks(label, corrupt):
        phi = phi_map(twist(GL_A1, TwistSpec(2, (2, -3))), HG21)
        matrices = dict(phi.matrices)
        matrices[label] = corrupt(matrices[label])
        report = compare_with_KH(phi.replace(matrices=matrices))
        return {item.name for item in report.failures}

    def test_raising_on_generating_column_fails(self):
        # column 0 is (J layer 0, empty subset, highest weight vector)
        def corrupt(mat):
            entries = dict(mat.entries)
            entries[(1, 0)] = ParamPoly.const(mat.params, 1)
            return PolyMatrix(mat.rows, mat.cols, mat.params, entries)
        failed = self._failed_checks(GenLabel("u", 1), corrupt)
        assert failed == {"generator matrices agree",
                          "phi(a_+) on generating subspace"}

    def test_zeroed_lowering_fails_free_generation(self):
        failed = self._failed_checks(
            GenLabel("v", 1),
            lambda mat: PolyMatrix(mat.rows, mat.cols, mat.params))
        assert failed == {"generator matrices agree", "free generation rank"}

    def test_direct_induction_dimension(self):
        basis, mats = induce_heisenberg(HG21, GL_TRIV.L.dim, 2,
                                        (Fraction(1), Fraction(0)),
                                        GL_TRIV.params)
        assert len(basis) == 2 ** GL_TRIV.odd_count * 2 * GL_TRIV.L.dim
