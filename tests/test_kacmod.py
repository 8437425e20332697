"""Kac modules: induction, normal ordering, typicality, singular vectors."""

import collections
import gc
import itertools
import types
from fractions import Fraction

import pytest

from superkac import heisenberg, kacmod
from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              SuperAlgebraSpec, build_fundamental_rep,
                              check_super_relations, structure_constants,
                              typicality_factors)
from superkac.evenrep import build_even_irrep
from superkac.exact import (ParameterizedEntryError, ParamPoly, PolyMatrix,
                            rational_linear_solve)
from superkac.kacmod import (SingularVector, SingularVectorReport,
                             _subset_order, induce, kac_typicality,
                             singular_vectors, weight_spaces)
from superkac.matryoshka import ReplicationSpec, TwistSpec, replicate
from testmatrix import ALGEBRA_CONFIGS, KAC_CONFIGS, bindings_for


def build_kac(flavor, m, n, a):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    sc = structure_constants(rep)
    L = build_even_irrep(rep.datum, a, sc)
    return induce(L, rep.datum, sc)


QUARTET = build_kac("sl", 2, 1, (0,))
OCTET = build_kac("sl", 2, 1, (1,))
SL31_TRIV = build_kac("sl", 3, 1, (0, 0))
GL21_A1 = build_kac("gl", 2, 1, (1,))

ALL_MODULES = {(cfg["flavor"], cfg["m"], cfg["n"], cfg["a"]):
               build_kac(cfg["flavor"], cfg["m"], cfg["n"], cfg["a"])
               for cfg in KAC_CONFIGS}


class TestInduce:
    def test_quartet_dimension_and_spectrum(self):
        K = QUARTET
        assert K.dim == 4
        y = K.matrices[GenLabel("y")]
        diag = [y.entry(i, i) for i in range(4)]
        y0 = K.y_scalar
        assert diag == [y0, y0 - 1, y0 - 1, y0 - 2]
        off_diag = {pos for pos in y.entries if pos[0] != pos[1]}
        assert not off_diag

    def test_octet_dimension(self):
        assert OCTET.dim == 8 == 2 ** 2 * 2

    def test_sl31_trivial_layers(self):
        K = SL31_TRIV
        assert K.dim == 8
        sizes = {}
        for layer in K.layers:
            sizes[layer] = sizes.get(layer, 0) + 1
        assert sizes == {0: 1, 1: 3, 2: 3, 3: 1}

    def test_dimension_formula_all_configs(self):
        for key, K in ALL_MODULES.items():
            assert K.dim == 2 ** K.odd_count * K.L.dim

    def test_layer_sizes_binomial(self):
        from math import comb
        for key, K in ALL_MODULES.items():
            P, dL = K.odd_count, K.L.dim
            sizes = {}
            for layer in K.layers:
                sizes[layer] = sizes.get(layer, 0) + 1
            assert sizes == {l: comb(P, l) * dL for l in range(P + 1)}

    def test_super_relations_exact_in_b(self):
        for key, K in ALL_MODULES.items():
            report = check_super_relations(K.matrices, K.sc, str(key))
            assert report.ok, report.summary()


class TestDegreeProfile:
    def test_u_linear_everything_else_constant(self):
        # the hypercharge matrix itself is y0(b) - layer, so it is the one
        # non-u matrix allowed (and required) to be linear in b
        for key, K in ALL_MODULES.items():
            for lab, mat in K.matrices.items():
                if lab.kind == "u":
                    assert mat.degree("b") <= 1
                elif lab.kind == "y":
                    assert mat.degree("b") == 1
                else:
                    assert mat.degree("b") == 0
                if "c" in K.params and lab.kind != "z0":
                    assert mat.degree("c") == 0

    def test_y_minus_scalar_is_integer_diagonal(self):
        for key, K in ALL_MODULES.items():
            y = K.matrices[GenLabel("y")]
            shifted = y - PolyMatrix.identity(K.dim, K.params).scale(K.y_scalar)
            assert shifted.degree("b") == 0
            for (r, c), val in shifted.entries.items():
                assert r == c
                assert val.constant_value().denominator == 1


def u_column(K, i, element):
    """u_i on one basis element (subset, even index), read as one column."""
    column = K.matrices[GenLabel("u", i)].submatrix(
        range(K.dim), [K.index_of(*element)])
    return {K.basis[r]: val for (r, _), val in sorted(column.entries.items())}


class TestNormalOrder:
    def test_u_kills_generating_layer(self):
        for i in (1, 2):
            assert u_column(QUARTET, i, ((), 0)) == {}

    def test_contraction_on_simple_root_pair(self):
        # u_1 (v_1 x L) = {u_1, v_1} L = b L for trivial even labels
        out = u_column(QUARTET, 1, ((1,), 0))
        b = ParamPoly.var(QUARTET.params, "b")
        assert out == {((), 0): b}

    def test_coefficients_linear_in_b(self):
        K = OCTET
        for i in range(1, K.odd_count + 1):
            for element in K.basis:
                for coefficient in u_column(K, i, element).values():
                    assert coefficient.degree("b") <= 1


class TestTypicality:
    def test_root_multisets_coincide(self):
        for a in ((0,), (1,), (2,)):
            ty = kac_typicality(ALL_MODULES[("sl", 2, 1, a)])
            assert ty.roots_match
            assert ty.proportional

    def test_atypical_verdict_types(self):
        ty = kac_typicality(QUARTET)
        assert ty.vanishing_types(Fraction(0)) == (1,)
        assert ty.vanishing_types(Fraction(-1)) == (2,)
        assert not ty.is_typical(Fraction(0))

    def test_generic_b_typical(self):
        ty = kac_typicality(OCTET)
        value = ty.s_poly.substitute({"b": Fraction(5, 7)})
        assert value.constant_value() != 0
        assert ty.is_typical(Fraction(5, 7))

    def test_factor_roots_from_independent_expansion(self):
        # oracle: the factors come straight from the root data, the matrix
        # route is the object under test
        for key, K in ALL_MODULES.items():
            ty = kac_typicality(K)
            oracle = typicality_factors(K.datum, K.labels, K.params)
            assert list(ty.factors) == oracle


class TestSingularVectors:
    def test_typical_only_highest_weight(self):
        for key, K in ALL_MODULES.items():
            sv = singular_vectors(K, bindings_for(K.spec.flavor))
            assert len(sv.vectors) == 1
            only = sv.vectors[0]
            assert only.layer == 0
            assert only.coefficients == ((K.hw_index, Fraction(1)),)

    def test_atypical_adds_exactly_one_extra_vector(self):
        for key, K in ALL_MODULES.items():
            ty = kac_typicality(K)
            binds = bindings_for(K.spec.flavor)
            for root, _ in ty.factor_roots:
                sv = singular_vectors(K, dict(binds, b=root))
                extra = [v for v in sv.vectors if v.layer > 0]
                assert len(extra) == 1

    def test_type1_vector_sits_at_lambda_minus_beta1(self):
        # the simple-root factor is b itself, so the type-1 point is b = 0
        # and v_1 applied to the highest weight is singular there
        for key, K in ALL_MODULES.items():
            binds = dict(bindings_for(K.spec.flavor), b=Fraction(0))
            beta1 = K.datum.odd_positive_roots[0]
            expected_weight = tuple(
                c.substitute(binds).constant_value() - br
                for c, br in zip(K.weights[K.hw_index], beta1))
            sv = singular_vectors(K, binds)
            extra = [v for v in sv.vectors if v.layer > 0]
            assert [v.weight for v in extra] == [expected_weight]
            assert extra[0].layer == 1

    def test_atypical_vector_weight_structure(self):
        # when the even labels keep the Verma-level state alive, the extra
        # vector appears at Lambda - beta_i (layer 1); when they kill it,
        # it slides down the wedge to Lambda - (beta_1 + ... + beta_i) at
        # layer i.  Both branches verified against the nullspace.
        for key, K in ALL_MODULES.items():
            ty = kac_typicality(K)
            binds = bindings_for(K.spec.flavor)
            for root, _ in ty.factor_roots:
                if root == 0:
                    continue
                (itype,) = ty.vanishing_types(root)
                bound = dict(binds, b=root)
                hw = tuple(c.substitute(bound).constant_value()
                           for c in K.weights[K.hw_index])
                sv = singular_vectors(K, bound)
                (extra,) = [v for v in sv.vectors if v.layer > 0]
                beta_i = K.datum.odd_positive_roots[itype - 1]
                shallow = tuple(h - x for h, x in zip(hw, beta_i))
                partial = [Fraction(0)] * len(hw)
                for j in range(itype):
                    partial = [p + x for p, x in
                               zip(partial, K.datum.odd_positive_roots[j])]
                deep = tuple(h - x for h, x in zip(hw, partial))
                assert extra.weight in (shallow, deep)
                assert extra.layer == (1 if extra.weight == shallow
                                       else itype)

    def test_even_highest_weight_state_omega(self):
        # at the atypicality point, the layer-1 even singular vector is
        # proportional to (a f v - (a+1) v f) applied to the highest weight
        for a in (1, 2):
            K = ALL_MODULES[("sl", 2, 1, (a,))]
            bval = Fraction(-(a + 1))
            sv = singular_vectors(K, {"b": bval}, "even-only")
            fmat = K.matrices[GenLabel("f", 1)].substitute({"b": bval})
            vmat = K.matrices[GenLabel("v", 1)].substitute({"b": bval})
            hw = PolyMatrix(K.dim, 1, K.params, {(K.hw_index, 0): 1})
            omega: dict = {}
            for (pos, _), val in (fmat @ (vmat @ hw)).entries.items():
                omega[pos] = omega.get(pos, Fraction(0)) + \
                    a * val.constant_value()
            for (pos, _), val in (vmat @ (fmat @ hw)).entries.items():
                omega[pos] = omega.get(pos, Fraction(0)) - \
                    (a + 1) * val.constant_value()
            omega = {pos: v for pos, v in omega.items() if v}
            matches = []
            for vec in sv.at_layer(1):
                coeffs = dict(vec.coefficients)
                if set(coeffs) == set(omega):
                    ratios = {omega[p] / coeffs[p] for p in coeffs}
                    if len(ratios) == 1:
                        matches.append(vec)
            assert matches, "omega not found among layer-1 even singular vectors"

    def test_trivial_labels_vector_slides_to_layer_i(self):
        # with all even labels zero the even quotient kills every layer-1
        # candidate except v_1; the type-i extra vector is the bottom of the
        # sub-wedge on the first i odd directions
        K = SL31_TRIV
        ty = kac_typicality(K)
        for root, _ in ty.factor_roots:
            (itype,) = ty.vanishing_types(root)
            sv = singular_vectors(K, {"b": root})
            (extra,) = [v for v in sv.vectors if v.layer > 0]
            assert extra.layer == itype
            subsets = {K.basis[pos][0] for pos, _ in extra.coefficients}
            assert subsets == {tuple(range(1, itype + 1))}


class TestSecondaryAtypicality:
    def test_shifted_weight_remains_atypical_same_type(self):
        # light-cone property: <beta|beta> = 0 makes the i-th factor at
        # Lambda - beta_i coincide with the one at Lambda
        from superkac.algebra import weight_from_labels
        for key, K in ALL_MODULES.items():
            ty = kac_typicality(K)
            coords = weight_from_labels(K.datum, K.labels, K.params)
            for root, _ in ty.factor_roots:
                for i in ty.vanishing_types(root):
                    beta = K.datum.odd_positive_roots[i - 1]
                    shifted = tuple(c - x for c, x in zip(coords, beta))
                    shifted_rho = tuple(
                        c + r for c, r in zip(shifted, K.datum.rho))
                    factor_i = K.datum.bilinear(
                        shifted_rho, K.datum.odd_positive_roots[i - 1])
                    assert factor_i.substitute({"b": root}).is_zero


class TestCharacter:
    def test_total_multiplicity(self):
        for key, K in ALL_MODULES.items():
            table = collections.Counter(K.weights)
            assert sum(table.values()) == 2 ** K.odd_count * K.L.dim

    def test_induced_product_identity(self):
        # ch K = (product over odd positive roots of (1 + e^-beta)) ch L
        for key, K in [(k, m) for k, m in ALL_MODULES.items()][:4]:
            expected: dict = {}
            for subset_size in range(K.odd_count + 1):
                for subset in itertools.combinations(
                        range(K.odd_count), subset_size):
                    shift = [Fraction(0)] * (K.spec.m + K.spec.n)
                    for s in subset:
                        beta = K.datum.odd_positive_roots[s]
                        shift = [x + y for x, y in zip(shift, beta)]
                    for coord in K.L.weights:
                        key2 = tuple(c - s for c, s in zip(coord, shift))
                        expected[key2] = expected.get(key2, 0) + 1
            assert collections.Counter(K.weights) == expected

    def test_hypercharge_graded_dimensions_binomial(self):
        from math import comb
        K = SL31_TRIV
        by_layer: dict = {}
        for pos, layer in enumerate(K.layers):
            by_layer[layer] = by_layer.get(layer, 0) + 1
        assert by_layer == {l: comb(3, l) for l in range(4)}


# -- induction against the block-matrix reference -----------------------------

def wedge_insert(j: int, subset: tuple):
    """Insert index j into a sorted subset; returns (new_subset, sign) or None."""
    if j in subset:
        return None
    before = sum(1 for s in subset if s < j)
    new = subset[:before] + (j,) + subset[before:]
    return new, (-1) ** before


def wedge_replace(subset: tuple, position: int, new_index: int):
    """Replace the generator at one slot and resort; None if it repeats."""
    rest = subset[:position] + subset[position + 1:]
    if new_index in rest:
        return None
    before = sum(1 for s in rest if s < new_index)
    new = rest[:before] + (new_index,) + rest[before:]
    return new, (-1) ** ((position - before) % 2)


def test_wedge_insert_signs():
    assert wedge_insert(2, ()) == ((2,), 1)
    assert wedge_insert(1, (2, 3)) == ((1, 2, 3), 1)
    assert wedge_insert(2, (1, 3)) == ((1, 2, 3), -1)
    assert wedge_insert(4, (1, 2, 3)) == ((1, 2, 3, 4), -1)
    assert wedge_insert(3, (1, 3)) is None


def test_wedge_replace_signs():
    # v_1 v_2 v_3 with v_1 -> v_4 is v_4 v_2 v_3 = v_2 v_3 v_4
    assert wedge_replace((1, 2, 3), 0, 4) == ((2, 3, 4), 1)
    # v_1 v_3 with v_3 -> v_2 keeps its place
    assert wedge_replace((1, 3), 1, 2) == ((1, 2), 1)
    # v_2 v_3 with v_3 -> v_1 is v_2 v_1 = -v_1 v_2
    assert wedge_replace((2, 3), 1, 1) == ((1, 2), -1)
    assert wedge_replace((1, 2), 1, 2) == ((1, 2), 1)
    assert wedge_replace((1, 2), 0, 2) is None


def reference_induce_core(P: int, params: tuple, base_dim: int,
                          surface_labels, base_mats, adj, uv_exp) -> tuple:
    """The induction that builds every block as a PolyMatrix sum, one
    combination per summand."""
    subsets = _subset_order(P)
    basis = [(subset, l) for subset in subsets for l in range(base_dim)]
    offset = {subset: pos * base_dim for pos, subset in enumerate(subsets)}
    dim = len(basis)
    eye = PolyMatrix.identity(base_dim, params)

    def even_action_on_subset(g: GenLabel, subset: tuple):
        """Action of even g on subset x base as {(subset', matrix-on-base)}."""
        out = {}
        for position, s in enumerate(subset):
            for t, coeff in adj.get((g, s), ()):
                replaced = wedge_replace(subset, position, t)
                if replaced is None:
                    continue
                new_subset, sign = replaced
                scaled = eye.scale(coeff * sign)
                out[new_subset] = out.get(
                    new_subset, PolyMatrix.zeros(base_dim, base_dim, params)) + scaled
        factor = base_mats[g]
        out[subset] = out.get(subset, PolyMatrix.zeros(base_dim, base_dim, params)) + factor
        return out

    u_maps: dict = {}

    def u_action(j: int, subset: tuple):
        """u_j on subset x base, as {(subset', matrix-on-base)} (normal order)."""
        key = (j, subset)
        cached = u_maps.get(key)
        if cached is not None:
            return cached
        out: dict = {}
        if subset:
            head, tail = subset[0], subset[1:]
            for g, coeff in uv_exp.get((j, head), ()):
                for new_subset, mat in even_action_on_subset(g, tail).items():
                    scaled = mat.scale(coeff)
                    out[new_subset] = out.get(
                        new_subset, PolyMatrix.zeros(base_dim, base_dim, params)) + scaled
            for sub2, mat in u_action(j, tail).items():
                inserted = wedge_insert(head, sub2)
                if inserted is None:
                    continue
                new_subset, sign = inserted
                scaled = mat.scale(-sign)
                out[new_subset] = out.get(
                    new_subset, PolyMatrix.zeros(base_dim, base_dim, params)) + scaled
            out = {s: m for s, m in out.items() if not m.is_zero}
        u_maps[key] = out
        return out

    matrices: dict = {}
    for g in surface_labels:
        matrices[g] = PolyMatrix.from_blocks(dim, dim, params, (
            (offset[new_subset], offset[subset], mat)
            for subset in subsets
            for new_subset, mat in even_action_on_subset(g, subset).items()))

    for i in range(1, P + 1):
        blocks = []
        for subset in subsets:
            inserted = wedge_insert(i, subset)
            if inserted is not None:
                new_subset, sign = inserted
                blocks.append((offset[new_subset], offset[subset],
                               eye.scale(sign)))
        matrices[GenLabel("v", i)] = PolyMatrix.from_blocks(
            dim, dim, params, blocks)
        matrices[GenLabel("u", i)] = PolyMatrix.from_blocks(dim, dim, params, (
            (offset[new_subset], offset[subset], mat)
            for subset in subsets
            for new_subset, mat in u_action(i, subset).items()))

    return tuple(basis), matrices


def reference_weights(K) -> tuple:
    """Weights and layers with one root subtraction per slot of the subset."""
    weights, layers = [], []
    for subset, l in K.basis:
        coord = list(K.L.weights[l])
        for s in subset:
            beta = K.datum.odd_positive_roots[s - 1]
            coord = [c - r for c, r in zip(coord, beta)]
        weights.append(tuple(coord))
        layers.append(len(subset))
    return tuple(weights), tuple(layers)


def assert_same_induction(got, want):
    """Same basis, and ==-equal matrices under the same label order."""
    (basis, matrices), (ref_basis, ref_matrices) = got, want
    assert basis == ref_basis
    assert list(matrices) == list(ref_matrices)
    for label, mat in ref_matrices.items():
        assert matrices[label] == mat, label


DIFFERENTIAL_CASES = (
    [(cfg["flavor"], cfg["m"], cfg["n"], (0,) * (cfg["m"] + cfg["n"] - 2))
     for cfg in ALGEBRA_CONFIGS]
    + [("sl", 3, 1, (2, 1)), ("gl", 2, 1, (1,)), ("gl", 3, 1, (1, 0)),
       ("sl", 3, 2, (0, 0, 0)), ("sl", 4, 2, (0, 0, 0, 0))])


@pytest.mark.parametrize("flavor,m,n,a", DIFFERENTIAL_CASES,
                         ids=[f"{f}{m}{n}-{a}" for f, m, n, a in
                              DIFFERENTIAL_CASES])
def test_induce_matches_block_matrix_reference(flavor, m, n, a, monkeypatch):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    sc = structure_constants(rep)
    L = build_even_irrep(rep.datum, a, sc)
    K = induce(L, rep.datum, sc)
    monkeypatch.setattr(kacmod, "induce_core", reference_induce_core)
    ref = induce(L, rep.datum, sc)
    assert_same_induction((K.basis, K.matrices), (ref.basis, ref.matrices))
    assert (K.weights, K.layers) == reference_weights(ref)
    if flavor == "gl":
        assert K.params == ("b", "c")
        assert any(mat.degree("c") for mat in K.matrices.values())


@pytest.mark.parametrize("flavor,m,n,a,twist_n,nu", [
    ("gl", 2, 1, (1,), 3, (1, 0)),
    ("gl", 2, 1, (1,), 3, (2, Fraction(-1, 3))),
    ("sl", 3, 2, (1, 0, 0), 2, (Fraction(3, 2),)),
], ids=["nu0", "nu1", "sl32-n2"])
def test_heisenberg_induction_matches_block_matrix_reference(
        flavor, m, n, a, twist_n, nu, monkeypatch):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    sc = structure_constants(rep)
    K = induce(build_even_irrep(rep.datum, a, sc), rep.datum, sc)
    H = heisenberg.build_heisenberg(sc)
    spec = TwistSpec(twist_n, nu)
    got = heisenberg.induce_heisenberg(H, K.L.dim, spec, K.params)
    monkeypatch.setattr(heisenberg, "induce_core", reference_induce_core)
    want = heisenberg.induce_heisenberg(H, K.L.dim, spec, K.params)
    assert len(got[0]) == 2 ** K.odd_count * twist_n * K.L.dim
    assert_same_induction(got, want)


@pytest.mark.parametrize("flavor,m,n,a", [("sl", 3, 1, (2, 1)),
                                          ("gl", 2, 1, (1,))])
def test_induce_core_matches_reference_on_fractional_slots(flavor, m, n, a,
                                                           monkeypatch):
    # the structure constants give integer [g, v_s]; rescaled ones make
    # the slot coefficients share a denominator above 1 with the
    # contractions' (induce_core reads them as given, not as a Lie bracket)
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    sc = structure_constants(rep)
    L = build_even_irrep(rep.datum, a, sc)
    calls = []
    monkeypatch.setattr(kacmod, "induce_core",
                        lambda *args: calls.append(args) or
                        reference_induce_core(*args))
    induce(L, rep.datum, sc)
    (P, params, base_dim, surface, base_mats, adj, uv_exp), = calls
    scales = [Fraction(2, 3), Fraction(-1, 2), Fraction(5, 4)]
    adj = {key: tuple((t, c * scales[k % 3]) for t, c in pairs)
           for k, (key, pairs) in enumerate(adj.items())}
    args = (P, params, base_dim, surface, base_mats, adj, uv_exp)
    monkeypatch.undo()
    assert_same_induction(kacmod.induce_core(*args),
                          reference_induce_core(*args))


def test_induce_leaves_no_garbage():
    # a memo that outlives induce, or a cycle through it, would show here
    rep = build_fundamental_rep(SuperAlgebraSpec(3, 2, "sl"))
    sc = structure_constants(rep)
    L = build_even_irrep(rep.datum, (0, 0, 0), sc)
    gc.collect()
    gc.disable()
    try:
        K = induce(L, rep.datum, sc)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert K.dim == 64


# -- weight spaces against substituting every coordinate ---------------------

def reference_weight_spaces(module, bindings) -> dict:
    """weight_spaces with every coordinate of every basis vector substituted."""
    groups: dict = {}
    for pos, coord in enumerate(module.weights):
        key = tuple(c.substitute(bindings).constant_value() for c in coord)
        groups.setdefault(key, []).append(pos)
    return {key: groups[key] for key in sorted(groups)}


@pytest.mark.parametrize("module, bindings", [
    (replicate(build_kac("sl", 3, 1, (1, 1)),
               ReplicationSpec(3, (Fraction(1), Fraction(2)))),
     {"b": Fraction(5, 7)}),
    (GL21_A1, {"b": Fraction(5, 7), "c": Fraction(3, 11)}),
], ids=["sl31-N3", "gl21"])
def test_weight_spaces_match_per_entry_reference(module, bindings):
    got = weight_spaces(module, bindings)
    assert list(got.items()) == \
        list(reference_weight_spaces(module, bindings).items())


def test_weight_spaces_of_equal_and_colliding_coordinates():
    # hash(-1) == hash(-2), so b - 1 and b - 2 share a hash; the twins are
    # equal coordinates held by different objects
    b = ParamPoly.var(("b",), "b")
    coords = [b - 1, b - 2, b - 1, b + 0, b, -b - 2]
    weights = tuple((x, y) for x in coords for y in coords[::-1])
    module = types.SimpleNamespace(weights=weights)
    for value in (Fraction(0), Fraction(1), Fraction(-3, 2)):
        got = weight_spaces(module, {"b": value})
        assert list(got.items()) == \
            list(reference_weight_spaces(module, {"b": value}).items())


def test_weight_spaces_need_every_parameter_bound():
    with pytest.raises(ParameterizedEntryError):
        weight_spaces(GL21_A1, {"b": Fraction(5, 7)})


# -- singular vectors against one Fraction solve per weight space -------------

def reference_singular_vectors(K, bindings, raising_set="even-and-odd"):
    """singular_vectors with one PolyMatrix of Fraction entries per weight
    space, solved by rational_linear_solve, and its weight spaces from
    reference_weight_spaces."""
    if raising_set not in ("even-and-odd", "even-only"):
        raise InputError(f"unknown raising set {raising_set!r}")
    bindings = {name: Fraction(v) for name, v in bindings.items()}
    missing = [p for p in K.params if p not in bindings]
    if missing:
        raise InputError(f"parameters {missing} must be bound for the solve")

    raising = [lab for lab in K.matrices
               if lab.kind == "e" or (raising_set == "even-and-odd"
                                      and lab.kind == "u")]
    raising.sort()
    mats = {lab: K.matrices[lab].substitute(bindings) for lab in raising}
    by_column: dict = {}
    for lab in raising:
        for (r, c), val in mats[lab].rational_entries().items():
            by_column.setdefault(c, []).append(((lab, r), val))

    found = []
    for key, cols in reference_weight_spaces(K, bindings).items():
        # only the nonzero rows of the stacked raising action: the RREF
        # nullspace does not depend on row order or zero rows
        row_of: dict = {}
        entries = {}
        for j, c in enumerate(cols):
            for row_key, val in by_column.get(c, ()):
                entries[(row_of.setdefault(row_key, len(row_of)), j)] = val
        result = rational_linear_solve(
            PolyMatrix(len(row_of), len(cols), K.params, entries))
        for vec in result.nullspace:
            coeffs = tuple((cols[i], value) for i, value in enumerate(vec)
                           if value != 0)
            layer = K.layers[coeffs[0][0]]
            found.append(SingularVector(weight=key, layer=layer,
                                        coefficients=coeffs))
            # exactness self-check: the embedded vector is annihilated
            embedded = PolyMatrix(K.dim, 1, K.params,
                                  {(pos, 0): value for pos, value in coeffs})
            for lab in raising:
                if not (mats[lab] @ embedded).is_zero:
                    raise InternalConsistencyError(
                        f"reported singular vector not annihilated by {lab}")
    return SingularVectorReport(raising_set=raising_set,
                                bindings=dict(bindings), vectors=tuple(found))


SOLVE_MODULES = dict(ALL_MODULES)
SOLVE_MODULES[("sl", 3, 1, (2, 1))] = build_kac("sl", 3, 1, (2, 1))
SOLVE_MODULES[("gl", 3, 1, (1, 0))] = build_kac("gl", 3, 1, (1, 0))


def solve_cases():
    """(module key, bindings): a generic b and every atypical root, with the
    gl centre bound too."""
    for key, K in SOLVE_MODULES.items():
        binds = bindings_for(K.spec.flavor)
        roots = [root for root, _ in kac_typicality(K).factor_roots]
        for b in [binds["b"]] + roots:
            flavor, m, n, a = key
            yield pytest.param(key, dict(binds, b=b),
                               id=f"{flavor}{m}{n}-{a}-b={b}")


@pytest.mark.parametrize("raising_set", ["even-and-odd", "even-only"])
@pytest.mark.parametrize("key,bindings", list(solve_cases()))
def test_singular_vectors_match_fraction_reference(key, bindings,
                                                   raising_set):
    K = SOLVE_MODULES[key]
    got = singular_vectors(K, bindings, raising_set)
    assert got == reference_singular_vectors(K, bindings, raising_set)
    assert all(type(x) is Fraction for vec in got.vectors
               for x in vec.weight + tuple(q for _, q in vec.coefficients))


FULL_STACK_MODULES = {key: SOLVE_MODULES[key]
                      for key in (("sl", 3, 1, (2, 1)), ("gl", 3, 1, (1, 0)))}
FULL_STACK_MODULES[("sl", 3, 2, (0, 0, 0))] = build_kac("sl", 3, 2, (0, 0, 0))
FULL_STACK_MODULES[("sl", 2, 3, (1, 0, 0))] = build_kac("sl", 2, 3, (1, 0, 0))


def full_stack_cases():
    for key, K in FULL_STACK_MODULES.items():
        binds = bindings_for(K.spec.flavor)
        roots = [root for root, _ in kac_typicality(K).factor_roots]
        for b in [binds["b"]] + roots[:2]:
            flavor, m, n, a = key
            yield pytest.param(key, dict(binds, b=b),
                               id=f"{flavor}{m}{n}-{a}-b={b}")


@pytest.mark.parametrize("key,bindings", list(full_stack_cases()))
def test_simple_raising_stack_matches_the_full_stack(key, bindings,
                                                     monkeypatch):
    """The solve stacks only the simple e_i and u_1, which generate the
    raising subalgebra, and finds the vectors of the reference, which
    stacks every raising matrix, u_2, ..., u_P included."""
    K = FULL_STACK_MODULES[key]
    rows_solved = []
    rref = kacmod.rref

    def spy(rows):
        rows = list(rows)
        rows_solved.append(len(rows))
        return rref(rows)

    with monkeypatch.context() as patch:
        patch.setattr(kacmod, "rref", spy)
        got = singular_vectors(K, bindings)
    assert got == reference_singular_vectors(K, bindings)
    # a raising matrix maps one weight space into another, so each of its
    # nonzero rows is solved in exactly one weight space
    simple = [lab for lab in K.matrices
              if lab.kind == "e" or lab == GenLabel("u", 1)]
    assert K.odd_count > 1 and len(simple) < len(
        [lab for lab in K.matrices if lab.kind in ("e", "u")])
    assert sum(rows_solved) == sum(
        len(K.matrices[lab].substitute(bindings).integer_term()[1])
        for lab in simple)


def test_non_integral_odd_root_is_refused():
    K = OCTET
    roots = list(K.datum.odd_positive_roots)
    roots[1] = (Fraction(1, 2),) + roots[1][1:]
    datum = K.datum.replace(odd_positive_roots=tuple(roots))
    with pytest.raises(InternalConsistencyError, match="not an integer"):
        induce(K.L, datum, K.sc)
