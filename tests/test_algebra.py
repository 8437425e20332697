"""Root data, fundamental representation and structure constants."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkac import algebra
from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              StructureConstants, SuperAlgebraSpec,
                              _full_basis, build_fundamental_rep,
                              build_root_datum, check_super_relations,
                              extend_matrices, generating_set,
                              grading_report, parity_of,
                              sbracket, structure_constants,
                              super_jacobi_report, typicality_factors,
                              weight_from_labels)
from block_oracle import part_over
from dense_oracles import ExactSolver, dense_rows, dense_rref
from setup_oracles import (rational_entries, reference_bilinear, supertrace,
                           weight_eval)
from superkac.exact import ParamPoly, PolyMatrix, combination, integer_rref
from testmatrix import ALGEBRA_CONFIGS


def make(flavor, m, n):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    return rep, structure_constants(rep)


SL21, SC21 = make("sl", 2, 1)
GL21, SCG21 = make("gl", 2, 1)


class TestRootDatum:
    def test_sl21_odd_roots_and_rho(self):
        datum = SL21.datum
        eps1, eps2, delta1 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        roots = {tuple(int(x) for x in w) for w in datum.odd_positive_roots}
        assert roots == {(1, 0, -1), (0, 1, -1)}  # eps_i - delta_1
        assert tuple(int(x) for x in datum.rho) == (0, -1, 1)  # -eps2 + delta1

    def test_beta1_is_the_simple_odd_root(self):
        for flavor, m, n in (("sl", 2, 1), ("sl", 3, 1), ("sl", 2, 3)):
            datum = build_root_datum(SuperAlgebraSpec(m, n, flavor))
            beta1 = datum.odd_positive_roots[0]
            expected = [Fraction(0)] * (m + n)
            expected[m - 1], expected[m] = Fraction(1), Fraction(-1)
            assert list(beta1) == expected

    def test_odd_roots_on_the_light_cone(self):
        for flavor, m, n in (("sl", 2, 1), ("gl", 3, 1), ("sl", 2, 3)):
            datum = build_root_datum(SuperAlgebraSpec(m, n, flavor))
            for beta in datum.odd_positive_roots:
                assert reference_bilinear(datum.spec, beta, beta) == 0

    def test_sl32_counts(self):
        datum = build_root_datum(SuperAlgebraSpec(3, 2, "sl"))
        assert len(datum.odd_positive_roots) == 6
        assert datum.rank == 3

    def test_rho_reproduced_from_root_lists(self):
        for flavor, m, n in (("sl", 2, 1), ("gl", 2, 3)):
            datum = build_root_datum(SuperAlgebraSpec(m, n, flavor))
            half = Fraction(1, 2)
            rho0 = [sum(w[i] for w in datum.even_positive_roots) * half
                    for i in range(m + n)]
            rho1 = [sum(w[i] for w in datum.odd_positive_roots) * half
                    for i in range(m + n)]
            assert list(datum.rho) == [a - b for a, b in zip(rho0, rho1)]

    def test_sl_nn_rejected(self):
        with pytest.raises(InputError):
            SuperAlgebraSpec(2, 2, "sl")
        with pytest.raises(InputError):
            SuperAlgebraSpec(3, 3, "sl")

    def test_gl_nn_contraction_degenerates(self):
        # the odd Cartan element of gl(n|n) has no hypercharge component,
        # so the table extraction rejects it (the odd label is not free)
        rep = build_fundamental_rep(SuperAlgebraSpec(2, 2, "gl"))
        with pytest.raises(InputError):
            structure_constants(rep)


class TestBilinearForm:
    def test_eps_norm(self):
        datum = SL21.datum
        eps1 = (Fraction(1), Fraction(0), Fraction(0))
        assert reference_bilinear(datum.spec, eps1, eps1) == 1

    def test_delta_norm_negative(self):
        datum = SL21.datum
        delta1 = (Fraction(0), Fraction(0), Fraction(1))
        assert reference_bilinear(datum.spec, delta1, delta1) == -1

    def test_rho_pairs_to_zero_with_simple_odd_root(self):
        # expand rho = -eps2 + delta1 against beta1 = eps2 - delta1:
        # -<eps2|eps2> + <delta1|-delta1>*(-1) = -1 + 1 = 0
        datum = SL21.datum
        assert reference_bilinear(datum.spec, datum.rho,
                                  datum.odd_positive_roots[0]) == 0


class TestFundamentalRep:
    def test_hypercharge_oracle_sl21(self):
        # oracle: y = diag(w, w, z) with supertrace 0 and [y, E13] = E13,
        # i.e. 2w - z = 0 and w - z = 1: the unique solution is (-1, -1, -2).
        # columns of A for the unknowns (w, z), right-hand side (0, 1)
        solver = ExactSolver([[Fraction(2), Fraction(1)],
                              [Fraction(-1), Fraction(-1)]])
        w, z = solver.solve([Fraction(0), Fraction(1)])
        assert (w, z) == (Fraction(-1), Fraction(-2))
        y = SL21.matrices[GenLabel("y")]
        assert [y.entry(i, i).constant_value() for i in range(3)] == \
            [w, w, z]

    def test_grading_is_unit(self):
        for rep, sc in ((SL21, SC21), (GL21, SCG21)):
            y = rep.matrices[GenLabel("y")]
            for idx in range(1, rep.spec.odd_count + 1):
                u = rep.matrices[GenLabel("u", idx)]
                v = rep.matrices[GenLabel("v", idx)]
                assert y @ u - u @ y == u
                assert y @ v - v @ y == v.scale(-1)

    def test_supertraceless_for_sl(self):
        for label, mat in SL21.matrices.items():
            assert supertrace(SL21.spec, mat).is_zero

    def test_z0_is_central_identity(self):
        z0 = GL21.matrices[GenLabel("z0")]
        assert z0 == PolyMatrix.identity(3, ())
        for label, mat in GL21.matrices.items():
            assert (z0 @ mat - mat @ z0).is_zero

    def test_elementary_anticommutator(self):
        e13 = PolyMatrix(3, 3, (), {(0, 2): ParamPoly.const((), 1)})
        e31 = PolyMatrix(3, 3, (), {(2, 0): ParamPoly.const((), 1)})
        lhs = e13 @ e31 + e31 @ e13
        assert lhs == PolyMatrix(3, 3, (), {(0, 0): ParamPoly.const((), 1),
                                            (2, 2): ParamPoly.const((), 1)})


class TestStructureConstants:
    def test_k_from_decomposition_oracle(self):
        # decompose E11 + E33 = alpha h_1 + kappa y over the fixed y; with
        # y = diag(-1,-1,-2) the unique solution is alpha = 1/2, kappa = -1/2.
        h1 = [Fraction(1), Fraction(-1), Fraction(0)]
        y = [Fraction(-1), Fraction(-1), Fraction(-2)]
        target = [Fraction(1), Fraction(0), Fraction(1)]
        solver = ExactSolver([h1, y])
        alpha, kappa = solver.solve(target)
        assert (alpha, kappa) == (Fraction(1, 2), Fraction(-1, 2))
        assert SC21.k == kappa
        # the same coefficient appears in every {u_i, v_i} contraction
        assert SC21.bracket(GenLabel("u", 2),
                            GenLabel("v", 2))[GenLabel("y")] == kappa

    def test_k_nonzero_all_test_algebras(self):
        for flavor in ("sl", "gl"):
            for m, n in ((2, 1), (3, 1), (2, 3)):
                _, sc = make(flavor, m, n)
                assert sc.k != 0

    def test_uu_and_vv_anticommutators_vanish(self):
        P = SC21.spec.odd_count
        for i, j in itertools.product(range(1, P + 1), repeat=2):
            assert SC21.bracket(GenLabel("u", i), GenLabel("u", j)) == {}
            assert SC21.bracket(GenLabel("v", i), GenLabel("v", j)) == {}

    def test_y_centralizes_even_subalgebra(self):
        for i in range(1, SC21.spec.rank + 1):
            assert SC21.bracket(GenLabel("y"), GenLabel("h", i)) == {}
            assert SC21.bracket(GenLabel("y"), GenLabel("e", i)) == {}
            assert SC21.bracket(GenLabel("y"), GenLabel("f", i)) == {}

    def test_cartan_relations(self):
        # [h_i, e_j] = C_ij e_j as stored in the table
        rep, sc = make("sl", 3, 1)
        C = rep.datum.cartan_matrix
        for i in range(1, sc.spec.rank + 1):
            for j in range(1, sc.spec.rank + 1):
                expansion = sc.bracket(GenLabel("h", i), GenLabel("e", j))
                expected = {GenLabel("e", j): Fraction(C[i - 1][j - 1])} \
                    if C[i - 1][j - 1] else {}
                assert expansion == expected

    def test_super_jacobi_and_grading(self):
        for rep, sc in ((SL21, SC21), (GL21, SCG21)):
            assert super_jacobi_report(sc).ok
            assert grading_report(sc).ok


# -- structure constants against the dense solve they replaced ---------------

def reference_structure_constants(rep) -> dict:
    """The table by one dense solve per pair: each bracket flattened to a
    dim^2 vector and solved against all flattened basis matrices."""
    basis, recipes, _ = _full_basis(rep.spec, rep.datum)
    mats = extend_matrices(rep.matrices, recipes)
    dim = rep.dim

    def flatten(mat):
        vec = [Fraction(0)] * (dim * dim)
        for (r, c), x in rational_entries(mat).items():
            vec[r * dim + c] = x
        return vec

    solver = ExactSolver([flatten(mats[lab]) for lab in basis])
    table = {}
    for la, lb in itertools.product(basis, repeat=2):
        bracket = combination(
            sbracket(parity_of(la), parity_of(lb), mats[la], mats[lb]))
        coeffs = solver.solve(flatten(bracket))
        assert coeffs is not None, (la, lb)
        expansion = {basis[i]: c for i, c in enumerate(coeffs) if c != 0}
        if expansion:
            table[(la, lb)] = expansion
    return table


def loop_structure_constants(rep) -> StructureConstants:
    """The superbracket table by the all-pairs loop ``structure_constants``
    replaced: every ordered basis pair is multiplied entry by entry in
    Fractions, root coefficients are read off their slots, and each
    diagonal d is solved against the Cartan labels by the RREF of [A | d].
    """
    spec, datum = rep.spec, rep.datum
    basis, recipes, _ = _full_basis(spec, datum)
    mats = extend_matrices(rep.matrices, recipes)
    dim = spec.dim_fund

    rows = []                         # per basis position: {r: {c: x}}
    slots = {}                        # (r, c) off the diagonal -> (position, x)
    cartan_pos = []                   # positions of the diagonal labels
    cartan_rows = [{} for _ in range(dim)]  # row i of A = [Cartan diagonals]
    for pos, lab in enumerate(basis):
        entries = rational_entries(mats[lab])
        rows.append({})
        for (r, c), x in entries.items():
            rows[pos].setdefault(r, {})[c] = x
        if all(r == c for r, c in entries):
            for (i, _), x in entries.items():
                cartan_rows[i][len(cartan_pos)] = x
            cartan_pos.append(pos)
            continue
        if len(entries) != 1:
            raise InternalConsistencyError(
                f"{lab} is neither diagonal nor one off-diagonal entry")
        (slot, x), = entries.items()
        if slot in slots:
            raise InternalConsistencyError(
                f"{lab} shares the entry {slot} with {basis[slots[slot][0]]}")
        slots[slot] = (pos, x)
    width = len(cartan_pos)
    if len(dense_rref(dense_rows(cartan_rows, width), width)) != width:
        raise InternalConsistencyError("the Cartan labels are linearly dependent")

    table = {}
    for (la, ra), (lb, rb) in itertools.product(zip(basis, rows), repeat=2):
        sign = 1 if (parity_of(la) and parity_of(lb)) else -1
        bracket: dict = {}
        for left, right, s in ((ra, rb, 1), (rb, ra, sign)):
            for r, row in left.items():
                for k, x in row.items():
                    for c, y in right.get(k, {}).items():
                        bracket[(r, c)] = bracket.get((r, c), 0) + s * x * y
        expansion = {}                # basis position -> coefficient
        diagonal = [0] * dim
        for (r, c), value in bracket.items():
            if not value:
                continue
            if r == c:
                diagonal[r] = value
            elif (r, c) in slots:
                pos, x = slots[(r, c)]
                expansion[pos] = value / x
            else:
                raise InternalConsistencyError(
                    f"superbracket [{la}, {lb}] does not close on the basis")
        if any(diagonal):
            # the RREF of [A | diagonal]: consistent iff its last column has
            # no pivot, and then that column holds the coefficients
            reduced = dense_rows(({**row, width: x} for row, x
                                  in zip(cartan_rows, diagonal)), width + 1)
            if width in dense_rref(reduced, width + 1):
                raise InternalConsistencyError(
                    f"superbracket [{la}, {lb}] does not close on the basis")
            expansion.update((pos, row[width]) for pos, row
                             in zip(cartan_pos, reduced) if row[width])
        if expansion:
            table[(la, lb)] = {basis[pos]: expansion[pos]
                               for pos in sorted(expansion)}

    ylab = GenLabel("y")
    k = None
    P = spec.odd_count
    for i in range(1, P + 1):
        for j in range(1, P + 1):
            exp = table.get((GenLabel("u", i), GenLabel("v", j)), {})
            ycoeff = exp.get(ylab, Fraction(0))
            if i == j:
                if k is None:
                    k = ycoeff
                elif ycoeff != k:
                    raise InternalConsistencyError(
                        "hypercharge coefficient of {u_i, v_i} is not uniform")
            elif ycoeff != 0:
                raise InternalConsistencyError(
                    "{u_i, v_j} has a hypercharge part off the diagonal")
    if k is None or k == 0:
        # happens exactly for gl(n|n): the odd Cartan element falls into the
        # span of the semisimple part and the centre, so the odd label is
        # not an independent parameter and the whole construction degenerates
        raise InputError(
            f"{spec} has a vanishing hypercharge coefficient in the odd "
            "contraction; modules with a free odd label need m != n")

    return StructureConstants(spec=spec, datum=datum, basis=tuple(basis),
                              recipes=recipes, table=table, k=k)


ORACLE_ALGEBRAS = (("sl", 2, 1), ("gl", 2, 1), ("gl", 1, 2), ("sl", 3, 1),
                   ("sl", 4, 1), ("gl", 2, 3), ("sl", 3, 2), ("sl", 4, 2),
                   ("sl", 8, 1))


LOOP_ALGEBRAS = ORACLE_ALGEBRAS + (("gl", 4, 3), ("gl", 3, 2), ("sl", 1, 3),
                                   ("sl", 5, 2), ("sl", 6, 1))


def table_items(table) -> list:
    """The table in key order, each expansion in its order, with the type
    of every value."""
    return [(key, [(t, c, type(c)) for t, c in exp.items()])
            for key, exp in table.items()]


@pytest.mark.parametrize("flavor, m, n", LOOP_ALGEBRAS)
def test_structure_constants_match_all_pairs_loop(flavor, m, n):
    rep, sc = make(flavor, m, n)
    want = loop_structure_constants(rep)
    assert table_items(sc.table) == table_items(want.table)
    assert sc.k == want.k
    assert sc.recipes == want.recipes
    assert sc.generators == want.generators


# every algebra the test modules build
ALL_ALGEBRAS = LOOP_ALGEBRAS + (("sl", 2, 3), ("gl", 3, 1), ("sl", 5, 1))


@pytest.mark.parametrize("flavor, m, n", ALL_ALGEBRAS)
def test_generating_set_is_the_cached_generators(flavor, m, n):
    sc = make(flavor, m, n)[1]
    assert "generators" not in vars(sc)
    assert generating_set(sc) == sc.generators
    assert vars(sc)["generators"] == generating_set(sc)


@pytest.mark.parametrize("flavor, m, n", ALL_ALGEBRAS)
def test_label_kind_is_the_parity(flavor, m, n):
    """Parity is read off the label kind: the fundamental matrix of a u or
    v label maps C^m and C^n into each other, that of every other label
    keeps both, and every target of [a, b] has parity |a| + |b|."""
    rep, sc = make(flavor, m, n)
    mats = extend_matrices(rep.matrices, sc.recipes)
    for lab in sc.basis:
        assert {(r >= m) != (c >= m) for r, c in rational_entries(mats[lab])} \
            == {bool(parity_of(lab))}
    for (a, b), expansion in sc.table.items():
        for target in expansion:
            assert parity_of(target) == parity_of(a) ^ parity_of(b)


def test_one_rref_per_table(monkeypatch):
    """One integer RREF of [A | I] serves every diagonal of the table, and
    no ``combination`` call: each nonsimple root vector is read off its
    matrix unit, not built from its recipe."""
    rep = build_fundamental_rep(SuperAlgebraSpec(3, 2, "gl"))
    calls = {"integer_rref": 0, "combination": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(algebra, "integer_rref",
                        counted("integer_rref", integer_rref))
    monkeypatch.setattr(algebra, "combination",
                        counted("combination", combination))
    sc = structure_constants(rep)
    assert sc.recipes
    assert calls == {"integer_rref": 1, "combination": 0}


@pytest.mark.parametrize("cfg", ALGEBRA_CONFIGS,
                         ids=[f"{c['flavor']}{c['m']}{c['n']}"
                              for c in ALGEBRA_CONFIGS])
def test_nonsimple_root_vectors_are_their_recipe_products(cfg):
    """The matrix unit of each nonsimple root vector, with 1 at its slot,
    is the superbracket of its recipe's operands."""
    rep, sc = make(cfg["flavor"], cfg["m"], cfg["n"])
    for label, (left, right) in sc.recipes.items():
        mat = rep.matrices[label]
        assert list(mat.entries.values()) == [ParamPoly.const((), 1)]
        assert mat == combination(sbracket(0, 0, rep.matrices[left],
                                           rep.matrices[right]))


@pytest.mark.parametrize("flavor, m, n", ORACLE_ALGEBRAS)
def test_structure_constants_match_dense_reference(flavor, m, n):
    rep, sc = make(flavor, m, n)
    want = reference_structure_constants(rep)
    # equal dicts in equal key order, down to each expansion
    assert [(key, list(exp.items())) for key, exp in sc.table.items()] == \
        [(key, list(exp.items())) for key, exp in want.items()]
    y = GenLabel("y")
    assert sc.k == want[(GenLabel("u", 1), GenLabel("v", 1))][y] != 0


def with_matrix(rep, label, entries):
    """rep with the matrix of label replaced by the given rational entries."""
    mat = PolyMatrix(rep.dim, rep.dim, (),
                     {pos: ParamPoly.const((), x) for pos, x in entries.items()})
    return rep.replace(matrices={**rep.matrices, label: mat})


PERTURBED_REPS = tuple(make(*alg)[0] for alg in (
    ("sl", 2, 1), ("gl", 2, 1), ("gl", 1, 2), ("sl", 3, 1), ("sl", 2, 3)))
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def outcome(build, rep):
    """The table and k that build(rep) gives, or the type and message of
    the consistency error it raises."""
    try:
        sc = build(rep)
    except (InternalConsistencyError, InputError) as exc:
        return type(exc), str(exc)
    return table_items(sc.table), sc.k


def draw_perturbed_rep(data):
    """A fundamental representation of PERTURBED_REPS with one matrix
    perturbed: a root scaled or moved, a stray entry added, a Cartan label
    made dependent or given a fractional diagonal."""
    rep = data.draw(st.sampled_from(PERTURBED_REPS))
    entries = {lab: rational_entries(mat)
               for lab, mat in sorted(rep.matrices.items())}
    cartan = [lab for lab, ent in entries.items()
              if all(r == c for r, c in ent)]
    roots = [lab for lab in entries if lab not in cartan]
    cells = list(itertools.product(range(rep.dim), repeat=2))
    kind = data.draw(st.sampled_from(
        ("scale", "move", "stray", "dependent", "fraction")))
    if kind in ("scale", "move"):
        label = data.draw(st.sampled_from(roots))
        (slot, x), = entries[label].items()
        if kind == "scale":
            new = {slot: x * data.draw(
                RATIONALS.filter(lambda q: q not in (0, 1, -1)))}
        else:
            new = {data.draw(st.sampled_from(
                [cell for cell in cells if cell != slot])): x}
    elif kind == "stray":
        label = data.draw(st.sampled_from(list(entries)))
        cell = data.draw(st.sampled_from(
            [cell for cell in cells if cell not in entries[label]]))
        new = {**entries[label], cell: data.draw(RATIONALS.filter(bool))}
    elif kind == "dependent":
        label = data.draw(st.sampled_from(cartan))
        new = {}
        for other in cartan:
            if other != label:
                q = data.draw(RATIONALS)
                for cell, x in entries[other].items():
                    new[cell] = new.get(cell, 0) + q * x
    else:
        label = data.draw(st.sampled_from(cartan))
        q = data.draw(RATIONALS.filter(lambda q: q.denominator > 1))
        t = data.draw(RATIONALS)
        new = {(i, i): q * entries[label].get((i, i), 0) + t
               for i in range(rep.dim)}
    return with_matrix(rep, label, {cell: x for cell, x in new.items() if x})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_perturbed_fundamental_matches_all_pairs_loop(data):
    """Fundamental representations with one matrix perturbed give the
    all-pairs loop's table, or its error message."""
    rep = draw_perturbed_rep(data)
    assert outcome(structure_constants, rep) == \
        outcome(loop_structure_constants, rep)


class TestRootSlotExtraction:
    def test_root_matrix_with_a_second_entry_is_named(self):
        # u_1 of sl(2|1) is E_{2,3}; a diagonal entry next to it makes it
        # neither a root slot nor a Cartan element
        rep = with_matrix(SL21, GenLabel("u", 1), {(1, 2): 1, (0, 0): 1})
        with pytest.raises(InternalConsistencyError, match="u_1"):
            structure_constants(rep)

    def test_shared_root_slot_is_named(self):
        rep = with_matrix(SL21, GenLabel("v", 1), {(1, 2): 1})
        with pytest.raises(InternalConsistencyError,
                           match="v_1 shares the entry .* with u_1"):
            structure_constants(rep)

    def test_diagonal_outside_the_cartan_span_does_not_close(self):
        # span{diag(1,0,0), y = diag(-1,-1,-2)} misses [e_1, f_1] = h_1
        rep = with_matrix(SL21, GenLabel("h", 1), {(0, 0): 1})
        with pytest.raises(InternalConsistencyError,
                           match=r"\[e_1, f_1\] does not close on the basis"):
            structure_constants(rep)

    def test_entry_at_an_unlabelled_slot_does_not_close(self):
        # v_1 made diagonal leaves its slot (2, 1) without a label, and
        # [e_1, v_2] = -E_{3,2} lands there
        rep = with_matrix(SL21, GenLabel("v", 1), {(2, 2): 1})
        with pytest.raises(InternalConsistencyError,
                           match=r"\[e_1, v_2\] does not close on the basis"):
            structure_constants(rep)


class TestRelationChecker:
    def test_fundamental_passes(self):
        assert check_super_relations(SL21.matrices, SC21).ok

    def test_symbolic_parameters_pass(self):
        lifted = {lab: part_over(mat, ("b",))
                  for lab, mat in SL21.matrices.items()}
        assert check_super_relations(lifted, SC21).ok

    def test_zeroed_generator_fails_with_locator(self):
        broken = dict(SL21.matrices)
        broken[GenLabel("u", 1)] = PolyMatrix(3, 3, ())
        report = check_super_relations(broken, SC21)
        assert not report.ok
        failure = report.failures[0]
        assert failure.location and "u_1" in failure.location


class TestWeightsFromLabels:
    def test_h_eigenvalues_recovered(self):
        rep, sc = make("sl", 3, 1)
        coords = weight_from_labels(rep.datum, (2, 1))
        for i in range(1, 3):
            h = rep.matrices[GenLabel("h", i)]
            diag = [h.entry(p, p).constant_value() for p in range(4)]
            value = weight_eval(coords, diag)
            assert value == ParamPoly.const(coords[0].params, (2, 1)[i - 1])

    def test_odd_label_recovered_via_h_beta(self):
        # h_beta = {u_1, v_1} must take the value b on the highest weight
        for rep, sc in ((SL21, SC21), (GL21, SCG21)):
            coords = weight_from_labels(rep.datum, (1,))
            hbeta_mat = None
            for label, coeff in sc.bracket(GenLabel("u", 1),
                                           GenLabel("v", 1)).items():
                term = rep.matrices[label].scale(coeff)
                hbeta_mat = term if hbeta_mat is None else hbeta_mat + term
            diag = [hbeta_mat.entry(p, p).constant_value() for p in range(3)]
            params = coords[0].params
            assert weight_eval(coords, diag) == ParamPoly.var(params, "b")

    def test_gl_central_charge_recovered(self):
        coords = weight_from_labels(GL21.datum, (1,))
        params = coords[0].params
        total = coords[0] + coords[1] + coords[2]
        assert total == ParamPoly.var(params, "c")

    def test_non_dominant_rejected(self):
        with pytest.raises(InputError):
            weight_from_labels(SL21.datum, (-1,))
        with pytest.raises(InputError):
            typicality_factors(SL21.datum, (-2,))


class TestTypicalityFactors:
    def test_linear_in_b(self):
        for a in ((0,), (1,), (2,)):
            for factor in typicality_factors(SL21.datum, a):
                assert factor.degree("b") <= 1

    def test_sl21_quartet_atypicality_values(self):
        # independent expansion: with Lambda = lam(eps1+eps2) + c1 delta1 and
        # b = lam + c1, the two factors are <Lambda+rho|eps_i - delta_1>,
        # i.e. b and b + 1; the atypicality values of b are 0 and -1.
        factors = typicality_factors(SL21.datum, (0,))
        params = factors[0].params
        bvar = ParamPoly.var(params, "b")
        assert sorted(map(str, factors)) == sorted(
            [str(bvar), str(bvar + 1)])

    def test_generic_rational_b_typical(self):
        factors = typicality_factors(SL21.datum, (1,))
        values = [f.substitute({"b": Fraction(5, 7)}).constant_value()
                  for f in factors]
        assert all(v != 0 for v in values)


class TestGenLabelHash:
    """The hash is computed once per label; equality, order, str and repr
    are those of the pair (kind, index)."""

    LABELS = [GenLabel(kind, index) for kind in ("h", "e", "f", "u", "v",
                                                 "E", "F")
              for index in (1, 2, 10)] + [GenLabel("y"), GenLabel("z0")]

    def test_equal_labels_hash_equal(self):
        for label in self.LABELS:
            twin = GenLabel(label.kind, label.index)
            assert twin == label and twin is not label
            assert hash(twin) == hash(label)
            assert {label: 1}[twin] == 1
        assert len(set(self.LABELS)) == len(self.LABELS)

    def test_order_str_and_repr_unchanged(self):
        shuffled = self.LABELS[::-1]
        assert sorted(shuffled) == sorted(
            shuffled, key=lambda label: (label.kind, label.index))
        assert str(GenLabel("e", 2)) == "e_2" and str(GenLabel("y")) == "y"
        assert repr(GenLabel("u", 3)) == "GenLabel(kind='u', index=3)"
        assert GenLabel("e", 1) != ("e", 1)

    def test_hash_survives_replace_copy_and_pickle(self):
        label = GenLabel("u", 2)
        moved = label.replace(index=3)
        assert moved == GenLabel("u", 3)
        assert hash(moved) == hash(GenLabel("u", 3))
        assert {GenLabel("u", 3): 1}[moved] == 1
        for clone in (copy.copy(label), copy.deepcopy(label),
                      pickle.loads(pickle.dumps(label))):
            assert clone == label and hash(clone) == hash(label)
            assert {label: 1}[clone] == 1
