"""Even-subalgebra irreps: Shapovalov construction against the Weyl oracle."""

import itertools
from fractions import Fraction

import pytest

from superkac.algebra import (GenLabel, InputError, SuperAlgebraSpec,
                              build_fundamental_rep, check_super_relations,
                              structure_constants)
from superkac.evenrep import (build_even_irrep, labels_to_hypercharge,
                              weyl_dimension, _VermaWords)
from superkac.exact import ParamPoly


def stack(flavor, m, n):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    return rep, structure_constants(rep)


SL21, SC21 = stack("sl", 2, 1)
SL31, SC31 = stack("sl", 3, 1)
GL21, SCG21 = stack("gl", 2, 1)
SL41, SC41 = stack("sl", 4, 1)
GL32, SCG32 = stack("gl", 3, 2)

# larger labels: up to 252 letter orderings at one weight
LARGE_CASES = ((SL31.datum, SC31, (2, 2)), (SL31.datum, SC31, (3, 2)),
               (SL41.datum, SC41, (1, 1, 0)), (GL32.datum, SCG32, (1, 1, 1)))


class TestLabelsToHypercharge:
    def test_sl21_trivial_labels(self):
        # invert h_beta = -(1/2) h_1 - (1/2) y at a = 0: y0 = -2b
        y0 = labels_to_hypercharge(SC21, (0,))
        b = ParamPoly.var(y0.params, "b")
        assert y0 == b * (-2)

    def test_shift_b_by_k_raises_y0_by_one(self):
        y0 = labels_to_hypercharge(SC21, (1,))
        shifted = y0.substitute({"b": Fraction(0) + SC21.k})
        base = y0.substitute({"b": Fraction(0)})
        assert shifted.constant_value() - base.constant_value() == 1

    def test_slope_is_inverse_k(self):
        for sc in (SC21, SC31, SCG21):
            labels = tuple([0] * sc.spec.rank)
            y0 = labels_to_hypercharge(sc, labels)
            assert y0.derivative("b") == ParamPoly.const(
                y0.params, Fraction(1) / sc.k)

    def test_matches_weight_evaluation(self):
        from superkac.algebra import weight_from_labels, weight_eval
        for rep, sc, a in ((SL21, SC21, (2,)), (SL31, SC31, (1, 0)),
                           (GL21, SCG21, (1,))):
            coords = weight_from_labels(rep.datum, a)
            y = rep.matrices[GenLabel("y")]
            diag = [y.entry(i, i).constant_value() for i in range(rep.dim)]
            assert weight_eval(coords, diag) == labels_to_hypercharge(sc, a)


class TestWeylDimension:
    def test_sl2_is_a_plus_one(self):
        assert weyl_dimension(SL21.datum, (5,)) == 6

    def test_sl3_fundamental(self):
        assert weyl_dimension(SL31.datum, (1, 0)) == 3

    def test_trivial(self):
        for rep in (SL21, SL31, GL21):
            assert weyl_dimension(rep.datum, tuple([0] * rep.spec.rank)) == 1

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            weyl_dimension(SL21.datum, (-1,))


class TestBuildEvenIrrep:
    def test_sl2_a2_radical_at_depth3(self):
        L = build_even_irrep(SL21.datum, (2,), SC21)
        assert L.dim == 3
        e1, f1 = L.matrices[GenLabel("e", 1)], L.matrices[GenLabel("f", 1)]
        # e f^n L = n(a - n + 1) f^(n-1) L for a = 2: coefficients 2, 2, 0
        state = {0: ParamPoly.const(L.params, 1)}
        expected = {1: Fraction(2), 2: Fraction(2), 3: Fraction(0)}
        for n in (1, 2, 3):
            state = f1.apply(state)
            image = e1.apply(state)
            value = sum((v.constant_value() for v in image.values()),
                        Fraction(0))
            assert value == expected[n]
        assert state == {}  # f^3 L = 0 in the irreducible quotient

    def test_all_zero_labels_trivial(self):
        L = build_even_irrep(SL31.datum, (0, 0), SC31)
        assert L.dim == 1
        assert all(mat.is_zero for lab, mat in L.matrices.items()
                   if lab.kind in ("e", "f"))

    def test_sl3_adjoint_dimension(self):
        L = build_even_irrep(SL31.datum, (1, 1), SC31)
        assert L.dim == 8 == weyl_dimension(SL31.datum, (1, 1))

    def test_dimension_matches_weyl_oracle(self):
        cases = [(SL21.datum, SC21, (a,)) for a in range(4)]
        cases += [(SL31.datum, SC31, a) for a in ((1, 0), (0, 1), (2, 0))]
        cases += LARGE_CASES
        for datum, sc, a in cases:
            assert build_even_irrep(datum, a, sc).dim == weyl_dimension(datum, a)

    def test_h_matrices_integer_diagonal(self):
        L = build_even_irrep(SL31.datum, (1, 1), SC31)
        for i in range(1, 3):
            h = L.matrices[GenLabel("h", i)]
            for (r, c), val in h.entries.items():
                assert r == c and val.constant_value().denominator == 1

    def test_even_relations_exact(self):
        # restricted check: even generators only, h' as scalar matrices
        from superkac.exact import PolyMatrix
        for datum, sc, a in ((SL21.datum, SC21, (2,)),
                             (SL31.datum, SC31, (1, 0)),
                             (GL21.datum, SCG21, (1,))) + LARGE_CASES:
            L = build_even_irrep(datum, a, sc)
            mats = dict(L.matrices)
            eye = PolyMatrix.identity(L.dim, L.params)
            mats[GenLabel("y")] = eye.scale(L.y_scalar)
            if L.z0_scalar is not None:
                mats[GenLabel("z0")] = eye.scale(L.z0_scalar)
            even_sc_labels = [lab for lab in sc.basis
                              if lab.kind not in ("u", "v")]
            report = check_super_relations(mats, _restrict(sc, even_sc_labels),
                                           "even restriction")
            assert report.ok

    def test_basis_words_pinned_sl31_a21(self):
        # the graded-lex pivot choice, word by word, so that a change of
        # basis cannot pass silently
        L = build_even_irrep(SL31.datum, (2, 1), SC31)
        assert L.basis_words == (
            (), (1,), (0,), (0, 1), (1, 0), (0, 0), (1, 0, 1), (0, 0, 1),
            (0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 0, 1),
            (1, 0, 1, 0, 1), (0, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1))

    def test_weyl_group_multiplicity_symmetry(self):
        # multiplicities are symmetric along every alpha_i string
        for datum, sc, a in ((SL31.datum, SC31, (2, 1)),
                             (SL21.datum, SC21, (3,))):
            L = build_even_irrep(datum, a, sc)
            mult: dict = {}
            for content in L.contents:
                mult[content] = mult.get(content, 0) + 1
            C = datum.cartan_matrix
            for content in mult:
                for i in range(datum.rank):
                    h_val = a[i] - sum(C[i][j] * content[j]
                                       for j in range(datum.rank))
                    reflected = list(content)
                    reflected[i] += h_val
                    assert mult.get(tuple(reflected)) == mult[content]

    def test_shapovalov_form_symmetric(self):
        words = _VermaWords(SL31.datum.cartan_matrix, (2, 1))
        content_words = [(0,), (1,), (0, 1), (1, 0), (0, 0, 1), (1, 0, 0)]
        for w1, w2 in itertools.product(content_words, repeat=2):
            if words.content_of(w1) != words.content_of(w2):
                continue
            one = {w2: Fraction(1)}
            other = {w1: Fraction(1)}
            assert words.pairing(w1, one) == words.pairing(w2, other)

    def test_non_dominant_rejected(self):
        with pytest.raises(InputError):
            build_even_irrep(SL21.datum, (-1,), SC21)


def _restrict(sc, labels):
    """Sub-table view with only the given labels (for even-only checks)."""
    from superkac.algebra import StructureConstants
    keep = set(labels)
    table = {(a, b): expansion for (a, b), expansion in sc.table.items()
             if a in keep and b in keep}
    recipes = {lab: recipe for lab, recipe in sc.recipes.items() if lab in keep}
    return StructureConstants(
        spec=sc.spec, datum=sc.datum, basis=tuple(l for l in sc.basis if l in keep),
        parity={l: sc.parity[l] for l in keep},
        grade={l: sc.grade[l] for l in keep},
        fundamental={l: sc.fundamental[l] for l in keep},
        recipes=recipes, table=table, k=sc.k, d=sc.d)
