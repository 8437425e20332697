"""The relation checker against a per-entry reference.

The reference is the full ordered-pair loop over {(row, col): ParamPoly}
entries.  The checker visits only the pairs (a, b) that contain a label of
the table's generating set X, computes those with a listed before b and
derives (b, a) wherever the table is graded-antisymmetric there.  So its
lists must equal the reference's filtered to those pairs, pair for pair:
order, count, first entry and residual.  By the generator-pair lemma its
pass/fail verdict must equal that of the unfiltered reference, on true
modules and on every corrupted one.

Super-Jacobi, which the checker verifies as "ad is a representation" on
the generator pairs, is compared with the per-triple loop that expands
every triple through the table: its pairs must equal the loop's violating
pairs that contain a generator, and its verdict that of all triples.

The Serre presentation, which a module check tries first, and the
root-space certificate, which super-Jacobi tries first, must leave every
report and list as the pairwise loop gives it and never prove a case the
loop rejects.  The presentation must be taken on every passing module and
ladder job here, and the certificate on every true table.
"""

import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkac import algebra, matryoshka
from superkac.algebra import (GenLabel, SuperAlgebraSpec, bracket_violations,
                              build_fundamental_rep, check_super_relations,
                              extend_matrices, parity_of, sbracket,
                              structure_constants, super_jacobi_report,
                              superbracket_violations, violations_report)
from superkac.evenrep import build_even_irrep
from superkac.exact import ParamPoly, PolyMatrix, combination
from superkac.kacmod import induce
from superkac.matryoshka import (ReplicatedModule, block_relations_report,
                                 deformation, derivative_report,
                                 derivative_violations)
from dense_oracles import dense_linear_solve, dense_rref
from test_golden import GOLDEN, LADDER, run_example
from testmatrix import ALGEBRA_CONFIGS

# -- the reference: ParamPoly arithmetic entry by entry -----------------------


def ref_combination(terms) -> dict:
    """sum of c * A @ B over (c, A, B), or c * A where B is None, for
    matrices given as {(row, col): ParamPoly}; zeros dropped."""
    out = {}
    for coeff, a, b in terms:
        if b is None:
            products = a.items()
        else:
            by_row = {}
            for (k, col), y in b.items():
                by_row.setdefault(k, []).append((col, y))
            products = [((r, col), x * y) for (r, k), x in a.items()
                        for col, y in by_row.get(k, ())]
        for pos, val in products:
            out[pos] = out.get(pos, 0) + val * coeff
    return {pos: val for pos, val in out.items() if not val.is_zero}


def ref_sbracket(pa, pb, a, b) -> dict:
    return ref_combination([(1, a, b), (1 if pa and pb else -1, b, a)])


def ref_violations(labels, table, bracket, targets, first_only=False) -> list:
    """Every violating ordered pair of ``labels``, or only the first."""
    out = []
    for la, lb in itertools.product(labels, repeat=2):
        residual = ref_combination(
            [(1, bracket(la, lb, parity_of(la), parity_of(lb)), None)]
            + [(-c, targets[t], None) for t, c in table.get((la, lb), {}).items()])
        if residual:
            pos = min(residual)
            out.append(((la, lb), pos, str(residual[pos])))
            if first_only:
                break
    return out


def on_generator_pairs(violations, generators) -> list:
    """The reference list filtered to the pairs that contain a generator."""
    return [v for v in violations
            if v[0][0] in generators or v[0][1] in generators]


def ref_extended(matrices, recipes) -> dict:
    out = {lab: mat.entries for lab, mat in matrices.items()}

    def ensure(label):
        if label not in out:
            left, right = recipes[label]
            out[label] = ref_combination(
                [(1, ref_sbracket(0, 0, ensure(left), ensure(right)),
                  None)])
        return out[label]

    for label in recipes:
        ensure(label)
    return out


def flat(violations) -> list:
    return [(pair, pos, str(val)) for pair, (pos, val) in violations]


# -- modules and corruptions ---------------------------------------------------


def build_kac(flavor, m, n, a):
    sc = structure_constants(build_fundamental_rep(SuperAlgebraSpec(m, n, flavor)))
    return induce(build_even_irrep(a, sc), sc)


MODULES = {"sl21_a1": build_kac("sl", 2, 1, (1,)),
           "gl21_a1": build_kac("gl", 2, 1, (1,)),
           "sl31_a11": build_kac("sl", 3, 1, (1, 1))}
E1, U1, V1 = GenLabel("e", 1), GenLabel("u", 1), GenLabel("v", 1)
CARTAN = ("h", "y", "z0")


def corrupted(K, label, value):
    """K with value added at the first nonzero entry of one generator."""
    mat = K.matrices[label]
    pos, _ = mat.first_nonzero()
    bump = PolyMatrix(mat.rows, mat.cols, K.params, {pos: value})
    return K.replace(matrices={**K.matrices, label: mat + bump})


CASES = [
    ("sl21_a1", None), ("sl21_a1", "e1"), ("sl21_a1", "u1_b"),
    ("gl21_a1", None), ("gl21_a1", "e1"), ("gl21_a1", "u1_b"),
    ("gl21_a1", "v1_c"),
    ("sl31_a11", None), ("sl31_a11", "u1_b"),
]


def case_module(name, corruption):
    K = MODULES[name]
    if corruption == "e1":            # a constant entry changed
        return corrupted(K, E1, Fraction(3, 2))
    if corruption == "u1_b":          # residuals of degree 2 in b
        return corrupted(K, U1, ParamPoly.var(K.params, "b") * Fraction(2, 5))
    if corruption == "v1_c":
        return corrupted(K, V1, ParamPoly.var(K.params, "c"))
    return K


def unit_conjugator(K) -> tuple:
    """E, g = I + b E and g^-1 = I - b E, E a matrix unit with E^2 = 0
    placed so that g moves the first entry of u_1."""
    (r, c), _ = K.matrices[U1].first_nonzero()
    E = PolyMatrix(K.dim, K.dim, K.params, {(c, r): 1})
    eye = PolyMatrix.identity(K.dim, K.params)
    bE = E.scale(ParamPoly.var(K.params, "b"))
    return E, eye + bE, eye - bE


def conjugated(K):
    """K conjugated by g = I + b E: a true module whose matrices have
    terms of degree 3 in b."""
    _, g, g_inv = unit_conjugator(K)
    return K.replace(matrices={lab: g @ mat @ g_inv
                               for lab, mat in K.matrices.items()})


def ref_superbracket(K, first_only=False) -> list:
    """The reference violations of K's superbracket table on all pairs."""
    sc = K.sc
    mats = ref_extended(K.matrices, sc.recipes)
    return ref_violations(
        sc.basis, sc.table,
        lambda la, lb, pa, pb: ref_sbracket(pa, pb, mats[la], mats[lb]), mats,
        first_only)


def ref_deformation(K, nu_y, nu_c) -> tuple:
    """The reference A and B = nu_y k d/db + nu_c d/dc of every A."""
    A = ref_extended(K.matrices, K.sc.recipes)
    B = {}
    for lab, entries in A.items():
        B[lab] = ref_combination([(1, {
            pos: val.derivative("b") * (K.sc.k * nu_y)
            + (val.derivative("c") * nu_c if nu_c else 0)
            for pos, val in entries.items()}, None)])
    return A, B


def ref_derivative(sc, A, B) -> dict:
    """The reference violations of identities (ii) and (iii) on all pairs."""
    return {
        "(ii) linearized relations [A_a,B_b] + [B_a,A_b] = f.B": ref_violations(
            sc.basis, sc.table,
            lambda la, lb, pa, pb: ref_combination(
                [(1, ref_sbracket(pa, pb, A[la], B[lb]), None),
                 (1, ref_sbracket(pa, pb, B[la], A[lb]), None)]), B),
        "(iii) [B_a,B_b] = 0": ref_violations(
            sc.basis, {},
            lambda la, lb, pa, pb: ref_sbracket(pa, pb, B[la], B[lb]), B),
    }


def block_verdicts(base, derivative) -> list:
    """Whether the N = 1, 2, 3 block modules fail: identity (i), (ii) or
    (iii) fails, or one before it.  The generator-pair lemma applies to
    the block modules, so these verdicts, not those of (ii) and (iii)
    alone, are the ones that must match the full reference."""
    return list(itertools.accumulate(
        [bool(base)] + [bool(v) for v in derivative.values()],
        lambda a, b: a or b))


def directions(K) -> tuple:
    """A twist direction (nu_y, nu_c) that moves every parameter of K."""
    return (Fraction(2), Fraction(-3)) if "c" in K.params \
        else (Fraction(1), Fraction(0))


@pytest.mark.parametrize("name,corruption", CASES,
                         ids=[f"{n}-{c or 'true'}" for n, c in CASES])
def test_superbracket_violations_match_reference(name, corruption):
    K = case_module(name, corruption)
    sc = K.sc
    full = ref_superbracket(K)
    got = flat(superbracket_violations(K.matrices, sc))
    assert got == on_generator_pairs(full, sc.generators)
    assert bool(got) == bool(full) == (corruption is not None)
    if corruption == "u1_b":
        assert any("b^2" in residual for _, _, residual in got)
        # a pair listed after its mirror is derived, not computed
        order = {lab: i for i, lab in enumerate(sc.basis)}
        assert any(order[lb] < order[la] for (la, lb), _, _ in got)
        # the second label alone can put a pair on the checked list
        assert any(la not in sc.generators for (la, lb), _, _ in got)


@pytest.mark.parametrize("name,corruption", CASES,
                         ids=[f"{n}-{c or 'true'}" for n, c in CASES])
def test_derivative_violations_match_reference(name, corruption):
    K = case_module(name, corruption)
    full = ref_derivative(K.sc, *ref_deformation(K, *directions(K)))
    got = derivative_violations(deformation(K, *directions(K)), 3)
    assert {key: flat(v) for key, v in got.items()} == {
        key: on_generator_pairs(v, K.sc.generators) for key, v in full.items()}
    assert block_verdicts(superbracket_violations(K.matrices, K.sc), got) == \
        block_verdicts(ref_superbracket(K, first_only=True), full)
    if corruption is None:
        assert not any(full.values())


SWEEP = [(name, label) for name, K in MODULES.items() for label in K.matrices]


@pytest.mark.parametrize("name,label", SWEEP,
                         ids=[f"{n}-{lab}" for n, lab in SWEEP])
def test_corruption_sweep_verdicts_match_full_reference(name, label):
    """One entry of one generator matrix bumped, for every generator
    matrix: h, y, z0 and the odd generators outside X included.  The
    generator-pair verdict equals that of the full reference.  The base
    fails, so the N = 2, 3 block modules fail too."""
    K = corrupted(MODULES[name], label, Fraction(1))
    got = superbracket_violations(K.matrices, K.sc)
    full = ref_superbracket(K, first_only=True)
    assert (bool(got), bool(full)) == (True, True)


@pytest.mark.parametrize("name,label", SWEEP,
                         ids=[f"{n}-{lab}" for n, lab in SWEEP])
def test_derivative_sweep_verdicts_match_full_reference(name, label):
    """One entry of one generator matrix A bumped by b, where A has its
    first nonzero entry, so that its derivative B moves there too.  The
    directly computed (ii) and (iii) equal the full reference on the
    generator pairs, and both fail."""
    K = corrupted(MODULES[name], label, ParamPoly.var(MODULES[name].params,
                                                      "b"))
    D = deformation(K, *directions(K))
    assert D.B[label] != deformation(MODULES[name], *directions(K)).B[label]
    got = derivative_violations(D, 3)
    full = ref_derivative(K.sc, *ref_deformation(K, *directions(K)))
    assert {key: flat(v) for key, v in got.items()} == {
        key: on_generator_pairs(v, K.sc.generators) for key, v in full.items()}
    assert block_verdicts([], got) == block_verdicts([], full) == \
        [False, True, True]


@pytest.mark.parametrize("name", MODULES)
def test_coboundary_verdicts_match_full_reference(name):
    """K conjugated by g = I + b E is a true module whose B is
    g (B + D(b) [E, A]) g^-1: the coboundary of E added to every B, then
    conjugated.  It keeps (ii), as for every true module, and breaks
    (iii)."""
    K = MODULES[name]
    E, g, g_inv = unit_conjugator(K)
    D = deformation(K, *directions(K))
    C = deformation(conjugated(K), *directions(K))
    for lab, mat in D.A.items():
        cobound = (E @ mat - mat @ E).scale(K.sc.k * D.nu[0])
        assert C.B[lab] == g @ (D.B[lab] + cobound) @ g_inv
    got = derivative_violations(C, 3)
    full = ref_derivative(K.sc, *ref_deformation(C.base, *directions(K)))
    assert {key: flat(v) for key, v in got.items()} == {
        key: on_generator_pairs(v, K.sc.generators) for key, v in full.items()}
    assert block_verdicts(superbracket_violations(C.base.matrices, K.sc),
                          got) == \
        block_verdicts(ref_superbracket(C.base, first_only=True), full) == \
        [False, False, True]


def test_report_names_the_pairs_checked():
    K = MODULES["sl21_a1"]
    (item,) = check_super_relations(K.matrices, K.sc, "relations").items
    assert item.name == ("superbracket table reproduced on all 39 generator "
                         "pairs (implies all 8^2 pairs)")
    bad = case_module("sl21_a1", "e1")
    (item,) = check_super_relations(bad.matrices, bad.sc, "relations").items
    count = len(superbracket_violations(bad.matrices, bad.sc))
    assert item.name == (f"superbracket table reproduced ({count} violating "
                         "generator pairs)")
    report = derivative_report(deformation(K, Fraction(1)), 3, "derivative")
    assert [item.name for item in report.items] == [
        "(ii) linearized relations [A_a,B_b] + [B_a,A_b] = f.B on all 39 "
        "generator pairs (implies all 8^2 pairs)",
        "(iii) [B_a,B_b] = 0 on all 39 generator pairs (implies all 8^2 pairs)"]
    # all labels as generators, as for H: the item names all pairs
    (item,) = violations_report("H", "table", K.sc.basis, K.sc.basis, []).items
    assert item.name == "table on all 8^2 pairs"


def test_readme_pair_count_example_is_current():
    """README quotes the item of sl(4|2) as "on all N generator pairs
    (implies all M^2 pairs)"; the report must still name those counts."""
    text = " ".join(
        (Path(__file__).resolve().parent.parent / "README.md").read_text()
        .split())
    (quoted,) = re.findall(
        r"on all \d+ generator pairs \(implies all \d+\^2 pairs\)\" for "
        r"sl\(4\|2\)", text)
    sc = stack_sc("sl", 4, 2)
    (item,) = violations_report("relations", "table", sc.basis,
                                sc.generators, []).items
    assert quoted == item.name.removeprefix("table ") + '" for sl(4|2)'


def test_one_combination_per_computed_pair(monkeypatch):
    """Each pair the checker computes, rather than derives from its
    mirror, costs one bracket call and one ``combination`` call, which
    forms bracket - sum_t f_ab^t target_t in a single pass."""
    K = MODULES["gl21_a1"]
    sc = K.sc
    mats = extend_matrices(K.matrices, sc.recipes)
    order = {lab: pos for pos, lab in enumerate(sc.basis)}
    calls = {"bracket": 0, "combination": 0}

    def bracket(la, lb, pa, pb):
        calls["bracket"] += 1
        return sbracket(pa, pb, mats[la], mats[lb])

    def counted(terms):
        calls["combination"] += 1
        return combination(terms)

    monkeypatch.setattr(algebra, "combination", counted)
    assert bracket_violations(sc.basis, sc.generators, sc.table,
                              mats, bracket) == []
    # the table is graded-antisymmetric, so exactly the pairs listed with
    # the first label no later than the second are computed
    computed = sum(1 for la, lb in itertools.product(sc.basis, repeat=2)
                   if order[la] <= order[lb]
                   and (la in sc.generators or lb in sc.generators))
    assert calls == {"bracket": computed, "combination": computed}


def count_products(monkeypatch) -> dict:
    """Counts of the checker's ``sbracket`` and ``combination`` calls."""
    calls = {"bracket": 0, "combination": 0}

    def counted_bracket(*args):
        calls["bracket"] += 1
        return sbracket(*args)

    def counted(terms):
        calls["combination"] += 1
        return combination(terms)

    monkeypatch.setattr(algebra, "sbracket", counted_bracket)
    monkeypatch.setattr(algebra, "combination", counted)
    return calls


def decline(monkeypatch) -> None:
    """Force the Serre presentation and the root-space certificate to
    decline, so that every check runs the pairwise loop."""
    monkeypatch.setattr(algebra, "_presented", lambda *args: False)
    monkeypatch.setattr(algebra, "_certified", lambda *args: False)


def refuse_pairwise(monkeypatch) -> None:
    """Make an entry into the pairwise loop fail the test."""
    def refuse(*args):
        raise AssertionError("the pairwise loop ran")

    monkeypatch.setattr(algebra, "_pairwise", refuse)


def guard_module_checks(monkeypatch) -> None:
    """Make a module relation check that enters the root-space
    certificate, the pairwise loop or ``extend_matrices`` fail the test.
    Super-Jacobi, which runs outside a module check, keeps its
    certificate."""
    checking = []
    real = {name: getattr(algebra, name) for name in (
        "_certified", "_pairwise", "extend_matrices",
        "superbracket_violations")}

    def guarded(name):
        def call(*args):
            if checking:
                raise AssertionError(f"a module check entered {name}")
            return real[name](*args)
        return call

    def module_check(*args):
        checking.append(True)
        try:
            return real["superbracket_violations"](*args)
        finally:
            checking.pop()

    for name in ("_certified", "_pairwise", "extend_matrices"):
        monkeypatch.setattr(algebra, name, guarded(name))
    monkeypatch.setattr(algebra, "superbracket_violations", module_check)


def test_one_bracket_per_computed_jacobi_generator_pair(monkeypatch):
    """With the certificate declined, super_jacobi_report brackets the ad
    matrices of the generator pairs only: a return to all n^2 pairs makes
    more calls."""
    sc = stack_sc("sl", 3, 1)
    order = {lab: pos for pos, lab in enumerate(sc.basis)}
    decline(monkeypatch)
    calls = count_products(monkeypatch)
    assert super_jacobi_report(sc).ok
    computed = sum(1 for la, lb in itertools.product(sc.basis, repeat=2)
                   if order[la] <= order[lb]
                   and (la in sc.generators or lb in sc.generators))
    n = len(sc.basis)
    assert computed < n * (n + 1) // 2
    assert calls == {"bracket": computed, "combination": computed}


def test_one_combination_per_generator_and_triangular_part(monkeypatch):
    """The certificate forms one residual per root x of X and part G of
    the triangular decomposition, [ad_x, S_G} - sum_t c_t ad_t, with one
    ``combination`` per part for S_G: sl(3|1) has X = {e_1, e_2, u_1,
    v_3} and the parts e/E, f/F, u, v."""
    sc = stack_sc("sl", 3, 1)
    refuse_pairwise(monkeypatch)
    calls = count_products(monkeypatch)
    assert super_jacobi_report(sc).ok
    roots = [x for x in sc.generators if x.kind not in CARTAN]
    parts = sc.root_weights[3]
    assert (len(roots), len(parts)) == (4, 4)
    assert calls == {"bracket": 4 * 4, "combination": 4 * 4 + 4}


# -- the generating set --------------------------------------------------------


STACKS = {}


def stack_sc(flavor, m, n):
    key = (flavor, m, n)
    if key not in STACKS:
        STACKS[key] = structure_constants(
            build_fundamental_rep(SuperAlgebraSpec(m, n, flavor)))
    return STACKS[key]


@pytest.mark.parametrize("cfg", ALGEBRA_CONFIGS + [
    {"flavor": "sl", "m": 8, "n": 1}],
    ids=[f"{c['flavor']}{c['m']}{c['n']}" for c in ALGEBRA_CONFIGS]
    + ["sl81"])
def test_generators_are_the_simple_ones(cfg):
    """sl: the simple raising e_i and u_1 with the lowest-weight vector
    v_P of ad; gl adds z0, which the supertraceless brackets never
    reach."""
    sc = stack_sc(cfg["flavor"], cfg["m"], cfg["n"])
    rank = range(1, sc.spec.rank + 1)
    expected = ([GenLabel("e", i) for i in rank]
                + [U1, GenLabel("v", sc.spec.odd_count)])
    if cfg["flavor"] == "gl":
        expected.append(GenLabel("z0"))
    assert sorted(sc.generators) == sorted(expected)
    assert list(sc.generators) == [lab for lab in sc.basis
                                   if lab in sc.generators]


def even_restriction(sc):
    even = tuple(lab for lab in sc.basis if not parity_of(lab))
    return sc.replace(basis=even, table={
        pair: exp for pair, exp in sc.table.items()
        if pair[0] in even and pair[1] in even})


def test_even_restriction_generators_add_y():
    """y, the simple e_i and F_3, the lowest root vector of sl(3)."""
    restricted = even_restriction(stack_sc("sl", 3, 1))
    assert restricted.generators == (
        GenLabel("y"), GenLabel("e", 1), GenLabel("e", 2), GenLabel("F", 3))


def dense_closure_dim(sc, labels) -> int:
    """Dimension of the subalgebra generated by ``labels``: their span,
    grown by the brackets of the labels with the whole span, row-reduced
    by ``dense_rref``, until the rank stops growing."""
    n = len(sc.basis)
    order = {lab: pos for pos, lab in enumerate(sc.basis)}

    def bracket(lab, vec):
        out = [Fraction(0)] * n
        for pos, coeff in enumerate(vec):
            if coeff:
                for t, c in sc.bracket(lab, sc.basis[pos]).items():
                    out[order[t]] += coeff * c
        return out

    span, frontier = [], [[Fraction(int(pos == order[lab])) for pos in range(n)]
                          for lab in labels]
    while frontier:
        rows = span + frontier
        rank = len(dense_rref(rows, n))
        if rank == len(span):
            return rank
        span = rows[:rank]
        frontier = [bracket(lab, vec) for lab in labels for vec in span]
    return len(span)


GENERATION_CASES = {f"{c['flavor']}{c['m']}{c['n']}": stack_sc(
    c["flavor"], c["m"], c["n"]) for c in ALGEBRA_CONFIGS}
GENERATION_CASES.update({
    "sl81": stack_sc("sl", 8, 1), "gl43": stack_sc("gl", 4, 3),
    "sl13": stack_sc("sl", 1, 3),
    "sl42-even": even_restriction(stack_sc("sl", 4, 2))})


@pytest.mark.parametrize("sc", GENERATION_CASES.values(),
                         ids=GENERATION_CASES.keys())
def test_generators_close_to_the_basis_by_dense_oracle(sc):
    """X generates the whole basis, and the simple raising labels of X
    alone do not: the lowest-weight labels of the seed are needed."""
    assert dense_closure_dim(sc, sc.generators) == len(sc.basis)
    raising = [lab for lab in sc.generators if lab.kind == "e" or lab == U1]
    assert len(raising) < len(sc.generators)
    assert dense_closure_dim(sc, raising) < len(sc.basis)


@pytest.mark.parametrize("sc", GENERATION_CASES.values(),
                         ids=GENERATION_CASES.keys())
def test_simple_raising_labels_generate_the_raising_subalgebra(sc):
    """The simple e_i and u_1 generate every raising label, e, E and u,
    which ``kacmod.singular_vectors`` relies on when it stacks only them."""
    simple = [lab for lab in sc.basis if lab.kind == "e" or lab == U1]
    raising = [lab for lab in sc.basis if lab.kind in ("e", "E", "u")]
    assert dense_closure_dim(sc, simple) == len(raising)


class TestAntisymmetryGuard:
    """A table that is not graded-antisymmetric at a pair makes the checker
    compute that pair's mirror directly."""

    K = MODULES["sl21_a1"]

    def check(self, table):
        sc = self.K.sc
        mats = extend_matrices(self.K.matrices, sc.recipes)
        got = bracket_violations(
            sc.basis, sc.generators, table, mats,
            lambda la, lb, pa, pb: sbracket(pa, pb, mats[la], mats[lb]))
        ref = ref_extended(self.K.matrices, sc.recipes)
        expected = on_generator_pairs(ref_violations(
            sc.basis, table,
            lambda la, lb, pa, pb: ref_sbracket(pa, pb, ref[la], ref[lb]), ref),
            sc.generators)
        assert flat(got) == expected
        return [pair for pair, _, _ in expected]

    def test_one_order_altered(self):
        table = dict(self.K.sc.table)
        f1, h1, y = GenLabel("f", 1), GenLabel("h", 1), GenLabel("y")
        assert table[(f1, E1)] == {h1: -1}
        table[(f1, E1)] = {h1: Fraction(-1), y: Fraction(1)}
        # only the altered pair fails; deriving it from (e1, f1) would
        # have reported nothing
        assert self.check(table) == [(f1, E1)]

    def test_both_orders_altered(self):
        table = dict(self.K.sc.table)
        f1, h1 = GenLabel("f", 1), GenLabel("h", 1)
        table[(E1, f1)] = {h1: Fraction(2)}
        table[(f1, E1)] = {h1: Fraction(-2)}
        # both odd: the mirror carries the same expansion
        extra = {h1: Fraction(1, 3)}
        for pair in ((U1, V1), (V1, U1)):
            table[pair] = {**table.get(pair, {}), **extra}
        assert self.check(table) == [(E1, f1), (f1, E1), (U1, V1), (V1, U1)]


# -- super-Jacobi against the per-triple loop ----------------------------------


def ref_jacobi_defects(sc, first_only=False) -> dict:
    """{(a, b, c): {target: coeff}} of the nonzero defects
    [[a,b],c] + (-1)^{|a||b|}[b,[a,c]] - [a,[b,c]], with [[a,b],c] taken
    as -(-1)^{|ab||c|}[c,[a,b]], every bracket read from the table; or
    only the first."""

    def bracket_combo(lab, combo):
        out = {}
        for other, coeff in combo.items():
            for target, c in sc.bracket(lab, other).items():
                acc = out.get(target, Fraction(0)) + coeff * c
                if acc == 0:
                    out.pop(target, None)
                else:
                    out[target] = acc
        return out

    defects = {}
    for a, b, c in itertools.product(sc.basis, repeat=3):
        sign = Fraction(-1) if (parity_of(a) and parity_of(b)) else Fraction(1)
        lhs = bracket_combo(a, sc.bracket(b, c))
        rhs = {}
        for target, coeff in bracket_combo(c, sc.bracket(a, b)).items():
            s = Fraction(-1) if (parity_of(c) and (parity_of(a) ^ parity_of(b))) \
                else Fraction(1)
            rhs[target] = rhs.get(target, Fraction(0)) - s * coeff
        for target, coeff in bracket_combo(b, sc.bracket(a, c)).items():
            rhs[target] = rhs.get(target, Fraction(0)) + sign * coeff
        diff = dict(rhs)
        for target, coeff in lhs.items():
            diff[target] = diff.get(target, Fraction(0)) - coeff
        diff = {t: cf for t, cf in diff.items() if cf != 0}
        if diff:
            defects[(a, b, c)] = diff
            if first_only:
                break
    return defects


def jacobi_check(sc, monkeypatch):
    """super_jacobi_report(sc) and the violations it got from the checker."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(bracket_violations(*args, **kwargs))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "bracket_violations", spy)
        report = super_jacobi_report(sc)
    assert len(seen) == 1
    return report, seen[0]


def with_terms(sc, additions):
    """sc with coeff * target added to the expansion of each listed pair."""
    table = dict(sc.table)
    for pair, target, coeff in additions:
        expansion = dict(table.get(pair, {}))
        expansion[target] = expansion.get(target, Fraction(0)) + coeff
        table[pair] = {t: c for t, c in expansion.items() if c}
    return sc.replace(table=table)


@pytest.mark.parametrize("cfg", ALGEBRA_CONFIGS,
                         ids=[f"{c['flavor']}{c['m']}{c['n']}"
                              for c in ALGEBRA_CONFIGS])
def test_true_tables_pass_both_jacobi_checks(cfg, monkeypatch):
    sc = stack_sc(cfg["flavor"], cfg["m"], cfg["n"])
    assert ref_jacobi_defects(sc) == {}
    report, violations = jacobi_check(sc, monkeypatch)
    assert violations == []
    assert [(item.name, item.passed) for item in report.items] == [
        (f"graded Jacobi on all {len(sc.basis)}^3 triples", True)]


def both_orders(sc):
    """One parity-respecting corruption per unordered pair {a, b}, added
    to both orders with the graded-antisymmetric sign; the target cycles
    through the basis elements of parity |a| + |b|."""
    order = {lab: i for i, lab in enumerate(sc.basis)}
    for a, b in itertools.combinations_with_replacement(sc.basis, 2):
        pa, pb = parity_of(a), parity_of(b)
        if a == b and not pa:
            continue                  # [a, a] = 0 for even a
        targets = [t for t in sc.basis if parity_of(t) == pa ^ pb]
        t = targets[(order[a] + 2 * order[b]) % len(targets)]
        coeff = Fraction(order[a] + 1, order[b] + 2)
        mirror = coeff if (pa and pb) else -coeff
        additions = [((a, b), t, coeff)]
        if a != b:
            additions.append(((b, a), t, mirror))
        yield f"{sc.spec}:{a},{b}->{t}", with_terms(sc, additions)


BOTH_ORDERS = [case for flavor, m, n in (("gl", 2, 1), ("sl", 2, 1))
               for case in both_orders(stack_sc(flavor, m, n))]


@pytest.mark.parametrize("name,sc", BOTH_ORDERS,
                         ids=[name for name, _ in BOTH_ORDERS])
def test_both_order_corruptions_give_the_same_pairs(name, sc, monkeypatch):
    """The checker's pairs are the per-triple loop's violating pairs that
    contain a label of the corrupted table's own generating set."""
    defects = ref_jacobi_defects(sc)
    report, violations = jacobi_check(sc, monkeypatch)
    order = {lab: i for i, lab in enumerate(sc.basis)}
    ref_pairs = sorted({(a, b) for a, b, _ in defects
                        if a in sc.generators or b in sc.generators},
                       key=lambda pair: (order[pair[0]], order[pair[1]]))
    assert [pair for pair, _ in violations] == ref_pairs
    if not ref_pairs:
        assert report.ok
        return
    (item,) = report.items
    assert item.name == (f"graded Jacobi on all triples "
                         f"({len(ref_pairs)} violating generator pairs)")
    # the locator names a failing triple, its target and residual; the
    # checker's residual is the reference defect with the opposite sign
    (a, b), ((t, c), _) = violations[0]
    triple, target = (a, b, sc.basis[c]), sc.basis[t]
    assert item.location == f"triple ({a},{b},{sc.basis[c]}) target {target}"
    assert item.residual == str(-defects[triple][target])


def one_order(sc):
    """A term added to one order of a pair only: z0 on every ordered pair
    of gl, a grading-respecting target on sl."""
    for a, b in itertools.product(sc.basis, repeat=2):
        if sc.spec.flavor == "gl":
            target = GenLabel("z0")
        else:
            target = next(t for t in sc.basis
                          if parity_of(t) == parity_of(a) ^ parity_of(b))
        yield f"{sc.spec}:{a},{b}->{target}", with_terms(sc, [((a, b), target,
                                                       Fraction(1))])


ONE_ORDER = [case for flavor, m, n in (("gl", 2, 1), ("sl", 2, 1))
             for case in one_order(stack_sc(flavor, m, n))]


@pytest.mark.parametrize("name,sc", ONE_ORDER,
                         ids=[name for name, _ in ONE_ORDER])
def test_one_order_corruptions_fail_both(name, sc, monkeypatch):
    assert ref_jacobi_defects(sc)
    report, violations = jacobi_check(sc, monkeypatch)
    assert violations
    (item,) = report.items
    assert not item.passed
    assert item.name == (f"graded Jacobi on all triples "
                         f"({len(violations)} violating generator pairs)")


def sampled_both_orders(flavor, m, n, count, seed) -> list:
    cases = list(both_orders(stack_sc(flavor, m, n)))
    return random.Random(seed).sample(cases, count)


VERDICT_CASES = (BOTH_ORDERS + ONE_ORDER
                 + sampled_both_orders("sl", 3, 1, 20, seed=31)
                 + sampled_both_orders("gl", 2, 3, 20, seed=23))


@pytest.mark.parametrize("name,sc", VERDICT_CASES,
                         ids=[name for name, _ in VERDICT_CASES])
def test_jacobi_verdict_is_that_of_all_triples(name, sc, monkeypatch):
    """The generator pairs fail iff some triple has a defect: ad_a is a
    graded derivation for a subalgebra of labels a, with no Jacobi
    premise, so a table that passes on the generator pairs passes on all
    triples."""
    report, violations = jacobi_check(sc, monkeypatch)
    has_defect = bool(ref_jacobi_defects(sc, first_only=True))
    assert bool(violations) == (not report.ok) == has_defect


# -- block-module relations by the derivation lemma ---------------------------


def zero_label_module(cfg):
    rank = SuperAlgebraSpec(cfg["m"], cfg["n"], cfg["flavor"]).rank
    return build_kac(cfg["flavor"], cfg["m"], cfg["n"], (0,) * rank)


LEMMA_MODULES = dict(MODULES)
LEMMA_MODULES.update({f"{c['flavor']}{c['m']}{c['n']}_a0": zero_label_module(c)
                      for c in ALGEBRA_CONFIGS})
SL_DIRECTIONS = ((Fraction(1), Fraction(0)), (Fraction(-2, 3), Fraction(0)))
GL_DIRECTIONS = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                 (Fraction(2), Fraction(-3)))
LEMMA_CASES = [(name, nu) for name, K in LEMMA_MODULES.items()
               for nu in (GL_DIRECTIONS if "c" in K.params
                          else SL_DIRECTIONS)]


def block(D, N):
    return ReplicatedModule(D, (Fraction(1),) * (N - 1), None)


def direct_items(D, N) -> list:
    """The items of (i) on the base plus the directly computed (ii)-(iii)."""
    K = D.base
    return (check_super_relations(K.matrices, K.sc, "base relations").items
            + derivative_report(D, N, "first-order relations").items)


def count_direct(monkeypatch) -> list:
    """A list that grows by N at each direct computation of (ii)-(iii)."""
    calls = []

    def counted(D, N):
        calls.append(N)
        return derivative_violations(D, N)

    monkeypatch.setattr(matryoshka, "derivative_violations", counted)
    return calls


@pytest.mark.parametrize("name,nu", LEMMA_CASES,
                         ids=[f"{n}-{','.join(map(str, nu))}"
                              for n, nu in LEMMA_CASES])
def test_lemma_path_gives_the_direct_items(name, nu, monkeypatch):
    """On true modules premise P2 holds, and for N = 1, 2, 3 the report
    equals (i) plus the direct (ii)-(iii), item for item, without
    computing the latter."""
    D = deformation(LEMMA_MODULES[name], *nu)
    assert D.nu == nu and D.affine_along()
    for N in (1, 2, 3):
        expected = direct_items(D, N)
        calls = count_direct(monkeypatch)
        got = block_relations_report(block(D, N))
        assert got.items == expected and got.ok
        assert len(got.items) == N and calls == []


def test_passing_module_forms_no_product(monkeypatch):
    """With (i) passing, (ii)-(iii) call no relation checker, and
    premise P2 forms no matrix product."""
    def refuse(*args):
        raise AssertionError("(ii)-(iii) computed directly")

    def no_products(terms):
        assert all(right is None for _, _, right in terms)
        return combination(terms)

    monkeypatch.setattr(matryoshka, "derivative_violations", refuse)
    monkeypatch.setattr(matryoshka, "bracket_violations", refuse)
    monkeypatch.setattr(matryoshka, "combination", no_products)
    for K in MODULES.values():
        report = block_relations_report(block(
            deformation(K, *directions(K)), 3))
        assert report.ok and len(report.items) == 3


def failed_premise(name, case):
    """A deformation of MODULES[name] on which (i) or P2 fails."""
    K = MODULES[name]
    if case == "u1_b":
        return deformation(case_module(name, "u1_b"), *directions(K))
    return deformation(conjugated(K), *directions(K))


PREMISE_CASES = [(name, case) for name in MODULES
                 for case in ("u1_b", "b_cubed")]


@pytest.mark.parametrize("name,case", PREMISE_CASES,
                         ids=[f"{n}-{c}" for n, c in PREMISE_CASES])
def test_failed_premise_takes_the_direct_path(name, case, monkeypatch):
    """A failing (i) or a failed P2 computes (ii)-(iii) directly, and
    the report is item for item that of the direct path, failures with
    their counts and locators included."""
    D = failed_premise(name, case)
    base_ok = check_super_relations(D.base.matrices, D.base.sc).ok
    assert (base_ok, D.affine_along()) == {
        "u1_b": (False, True), "b_cubed": (True, False)}[case]
    for N in (2, 3):
        expected = direct_items(D, N)
        calls = count_direct(monkeypatch)
        assert block_relations_report(block(D, N)).items == expected
        # P2 serves (iii) only, so the b^3 module at N = 2 takes the lemma
        assert calls == ([] if (case, N) == ("b_cubed", 2) else [N])
        failing = [item.name[:5] for item in expected if not item.passed]
        if case == "u1_b":
            assert failing[0] == "super"
        else:
            assert failing == ["(iii)"][:N - 2]


def test_failed_base_relations_are_the_premise_of_all_pairs():
    """With A[F_3] doubled on sl(3|1) a=(1,1), (i) fails, and (ii) holds on
    every generator pair but fails on 2 pairs of the full basis, so the
    passing (ii) item of an N = 2 block module claims all pairs only given
    the base relations."""
    K = MODULES["sl31_a11"]
    sc, F3 = K.sc, GenLabel("F", 3)
    D = deformation(K, Fraction(1))
    bad = D.replace(A={**D.A, F3: D.A[F3].scale(2)})
    base, item = block_relations_report(block(bad, 2)).items
    assert not base.passed and item.passed
    assert item.name.startswith("(ii) ") and item.name.endswith(
        "on all 104 generator pairs; all 15^2 pairs follow given the base "
        "relations")
    A, B = bad.A, bad.B
    full = bracket_violations(
        sc.basis, sc.basis, sc.table, B,
        lambda la, lb, pa, pb: sbracket(pa, pb, A[la], B[lb])
        + sbracket(pa, pb, B[la], A[lb]))
    assert len(full) == 2


def test_degree_along_the_direction_counts_moved_parameters_only():
    """The b^3 module twisted along z0 alone is affine along D = d/dc, so
    the lemma proves its (iii), and the direct path agrees."""
    D = deformation(conjugated(MODULES["gl21_a1"]), 0, 1)
    assert D.affine_along()
    assert block_relations_report(block(D, 3)).items == direct_items(D, 3)
    assert block_relations_report(block(D, 3)).ok


@pytest.mark.parametrize("name,corruption", CASES,
                         ids=[f"{n}-{c or 'true'}" for n, c in CASES])
def test_direct_residuals_are_derivatives_of_base_residuals(name,
                                                            corruption):
    """The identity behind the lemma, on every pair of the full basis:
    the direct (ii) residual is D of the (i) residual and, A being affine
    along D, twice the (iii) residual is D^2 of it."""
    K = case_module(name, corruption)
    D = deformation(K, *directions(K))
    assert D.affine_along()
    sc, A, B = K.sc, D.A, D.B
    failing = 0
    for la, lb in itertools.product(sc.basis, repeat=2):
        pa, pb = parity_of(la), parity_of(lb)
        expansion = sc.table.get((la, lb), {}).items()
        base = combination(sbracket(pa, pb, A[la], A[lb])
                           + [(-c, A[t], None) for t, c in expansion])
        linear = combination(sbracket(pa, pb, A[la], B[lb])
                             + sbracket(pa, pb, B[la], A[lb])
                             + [(-c, B[t], None) for t, c in expansion])
        square = combination(sbracket(pa, pb, B[la], B[lb]))
        assert linear == D.along(base)
        assert square.scale(2) == D.along(D.along(base))
        failing += not base.is_zero
    assert bool(failing) == (corruption is not None)


# -- the presentation and the root-space certificate ---------------------------
#
# A module check that the Serre presentation proves, or a super-Jacobi check
# that the certificate proves, returns [] with no pair residual; any other
# check runs the pairwise loop.  So with these paths and with them forced
# to decline, every report and violation list must be the same, and
# neither may prove a case that the pairwise loop rejects.


def both_paths(monkeypatch, check) -> tuple:
    """check() as it runs, and with the presentation and the certificate
    forced to decline."""
    taken = check()
    with monkeypatch.context() as patch:
        decline(patch)
        return taken, check()


def module_check(K, sc):
    """The violation list and the report items of K's relations, checked
    against the table of sc."""
    return (flat(superbracket_violations(K.matrices, sc)),
            check_super_relations(K.matrices, sc, "relations").items)


# (name, module, whether its check fails)
EQUIVALENT_MODULES = (
    [(f"{name}-{corruption or 'true'}", case_module(name, corruption),
      corruption is not None) for name, corruption in CASES]
    + [(f"{name}-{label}", corrupted(MODULES[name], label, Fraction(1)), True)
       for name, label in SWEEP]
    + [(name, K, False) for name, K in LEMMA_MODULES.items()
       if name not in MODULES])


@pytest.mark.parametrize("name,K,fails", EQUIVALENT_MODULES,
                         ids=[name for name, _, _ in EQUIVALENT_MODULES])
def test_module_checks_equal_with_the_certificate_declined(name, K, fails,
                                                            monkeypatch):
    taken, declined = both_paths(monkeypatch, lambda: module_check(K, K.sc))
    assert taken == declined
    assert bool(taken[0]) == fails


def module_of(sc):
    """The zero-label module of sc's algebra, built on the true table."""
    spec = sc.spec
    return LEMMA_MODULES[f"{spec.flavor}{spec.m}{spec.n}_a0"]


@pytest.mark.parametrize("name,sc", VERDICT_CASES,
                         ids=[name for name, _ in VERDICT_CASES])
def test_table_corruptions_equal_with_the_certificate_declined(name, sc,
                                                               monkeypatch):
    """super-Jacobi of a corrupted table, and a true module checked
    against it: the same reports, pairs, entries and residuals."""
    def jacobi():
        report, violations = jacobi_check(sc, monkeypatch)
        return report.items, flat(violations)

    taken, declined = both_paths(monkeypatch, jacobi)
    assert taken == declined
    taken, declined = both_paths(monkeypatch,
                                 lambda: module_check(module_of(sc), sc))
    assert taken == declined


@pytest.mark.parametrize("cfg", ALGEBRA_CONFIGS,
                         ids=[f"{c['flavor']}{c['m']}{c['n']}"
                              for c in ALGEBRA_CONFIGS])
def test_true_tables_equal_with_the_certificate_declined(cfg, monkeypatch):
    sc = stack_sc(cfg["flavor"], cfg["m"], cfg["n"])
    taken, declined = both_paths(
        monkeypatch, lambda: super_jacobi_report(sc).items)
    assert taken == declined


@pytest.mark.parametrize("name", LEMMA_MODULES)
def test_passing_modules_take_the_presentation(name, monkeypatch):
    """Every passing module of ALGEBRA_CONFIGS, given on its generator
    surface or with every nonsimple root vector as a deformation gives
    it, is proved by the presentation, without the certificate, the
    pairwise loop or a recipe product, so a premise that a later change
    breaks fails here instead of silently costing the pair residuals."""
    K = LEMMA_MODULES[name]
    guard_module_checks(monkeypatch)
    for matrices in (K.matrices, deformation(K, 1).A):
        assert superbracket_violations(matrices, K.sc) == []
        assert check_super_relations(matrices, K.sc).ok


# the verify ladder and one replicate and one twist job of GOLDEN, whose
# base relations go through the same module check
GUARDED_JOBS = LADDER + [next(job for job in GOLDEN if job[0].startswith(verb))
                         for verb in ("replicate", "twist")]


@pytest.mark.parametrize("command,pins", GUARDED_JOBS,
                         ids=[c.replace(" --algebra", "")
                              for c, _ in GUARDED_JOBS])
def test_verify_ladder_takes_the_presentation(command, pins, tmp_path, capsys,
                                              monkeypatch):
    """The benchmark's verify jobs and one replicate and one twist job
    write their pinned bytes with every module check proved by the
    presentation; super-Jacobi keeps its certificate."""
    guard_module_checks(monkeypatch)
    assert run_example(command, tmp_path, capsys, monkeypatch) == pins


def test_compensating_table_corruptions_are_declined(monkeypatch):
    """[x, b'] = c t loses c t to [x, b], b and b' in one triangular part:
    the part's sum of the f_xb^t is unchanged, so only the premise
    alpha_t = alpha_x + alpha_b, which [x, b] breaks, makes the
    certificate decline; the pairwise loop finds both pairs."""
    K = MODULES["sl31_a11"]
    sc = K.sc
    x, b_prime, b = E1, GenLabel("e", 2), GenLabel("E", 3)
    (t, c), = sc.bracket(x, b_prime).items()
    assert not sc.bracket(x, b)
    bad = with_terms(sc, [((x, b), t, c), ((b, x), t, -c),
                          ((x, b_prime), t, -c), ((b_prime, x), t, c)])
    assert bad.root_weights is None
    taken, declined = both_paths(monkeypatch, lambda: module_check(K, bad))
    assert taken == declined
    assert {(x, b), (x, b_prime)} <= {pair for pair, _, _ in taken[0]}


def test_duplicate_root_weights_are_declined():
    """In the abelian algebra on h_1, e_1, e_2, E_3 with [h_1, e] = e for
    every root e, all roots weigh the same.  Targets with rho_e2 =
    -rho_E3 make the residuals of (e_1, e_2) and (e_1, E_3) cancel in
    their part's sum, so only the premise of distinct root weights makes
    the certificate decline."""
    h1, e2, E3 = GenLabel("h", 1), GenLabel("e", 2), GenLabel("E", 3)
    basis = (h1, E1, e2, E3)
    table = {}
    for lab in basis[1:]:
        table[(h1, lab)], table[(lab, h1)] = {lab: Fraction(1)}, \
            {lab: Fraction(-1)}
    sc = stack_sc("sl", 2, 1).replace(basis=basis, table=table)
    unit = {(0, 0): 0, (1, 1): 1, (2, 2): 2}
    targets = {h1: PolyMatrix(3, 3, (), unit),
               E1: PolyMatrix(3, 3, (), {(1, 0): 1}),
               e2: PolyMatrix(3, 3, (), {(2, 1): 1}),
               E3: PolyMatrix(3, 3, (), {(2, 1): -1})}
    assert sc.root_weights is None
    got = bracket_violations(basis, (E1,), table, targets,
                             weights=sc.root_weights)
    assert [pair for pair, _ in got] == [(E1, e2), (E1, E3), (e2, E1),
                                         (E3, E1)]


def with_entry(mat, pos, value):
    """mat with value added at pos."""
    return mat + PolyMatrix(mat.rows, mat.cols, mat.params, {pos: value})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_certificate_never_proves_a_rejected_case(data):
    """One corruption of the targets (a changed value, a new entry at a
    free position, a removed entry, an off-diagonal entry on a Cartan
    target) or a graded-antisymmetric one of the table.  Where the
    certificate proves the check, the pairwise loop finds nothing, and
    the checker's list is always the pairwise loop's."""
    K = MODULES[data.draw(st.sampled_from(sorted(MODULES)))]
    sc = K.sc
    mats = extend_matrices(K.matrices, sc.recipes)
    kind = data.draw(st.sampled_from(
        ["value", "new", "removed", "cartan", "table"]))
    value = data.draw(st.sampled_from([Fraction(1), Fraction(-2, 3)]))
    if data.draw(st.booleans()):
        value = ParamPoly.var(K.params, "b") * value
    if kind == "table":
        a, b = data.draw(st.tuples(st.sampled_from(sc.basis),
                                   st.sampled_from(sc.basis)))
        t = data.draw(st.sampled_from([
            t for t in sc.basis
            if parity_of(t) == parity_of(a) ^ parity_of(b)]))
        coeff = Fraction(data.draw(st.sampled_from([1, -3])),
                         data.draw(st.sampled_from([1, 2])))
        sign = 1 if (parity_of(a) and parity_of(b)) else -1
        sc = with_terms(sc, [((a, b), t, coeff)]
                        + ([((b, a), t, sign * coeff)] if a != b else []))
    else:
        labels = [lab for lab in sc.basis
                  if (lab.kind in CARTAN) == (kind == "cartan")]
        label = data.draw(st.sampled_from(labels))
        entries = mats[label].entries
        if kind in ("value", "removed"):
            pos = data.draw(st.sampled_from(sorted(entries)))
            if kind == "removed":
                value = -entries[pos]
        else:
            pos = data.draw(st.tuples(st.integers(0, K.dim - 1),
                                      st.integers(0, K.dim - 1))
                            .filter(lambda rc: rc not in entries
                                    and (kind == "new" or rc[0] != rc[1])))
        mats = {**mats, label: with_entry(mats[label], pos, value)}
    args = (sc.basis, sc.generators, sc.table, mats)
    pairwise = algebra._pairwise(
        *args[:3], lambda la, lb, pa, pb: sbracket(pa, pb, mats[la], mats[lb]),
        mats)
    weights = sc.root_weights
    if weights is not None and algebra._certified(*args, weights):
        assert pairwise == []
    assert bracket_violations(*args, weights=weights) == pairwise
    if kind == "table":
        # the ad targets of the corrupted table, in super-Jacobi
        with pytest.MonkeyPatch.context() as patch:
            taken, declined = both_paths(
                patch, lambda: flat(jacobi_check(sc, patch)[1]))
        assert taken == declined


# -- the Serre presentation ----------------------------------------------------


def pairwise_of(matrices, sc) -> list:
    """The violations of the pairwise loop on the matrices extended by
    their recipes, the path a module check falls back to."""
    mats = extend_matrices(matrices, sc.recipes)
    return algebra._pairwise(
        sc.basis, sc.generators, sc.table,
        lambda la, lb, pa, pb: sbracket(pa, pb, mats[la], mats[lb]), mats)


def test_a_corrupted_nonsimple_target_fails_as_pairwise():
    """One entry of D.A[E_3] changed on an sl(3|1) replication: the tie of
    E_3 to its chain fails, so the base relations report the pairwise
    loop's count and first locator.  Every other relation holds, so
    without that tie the check would have passed."""
    K = MODULES["sl31_a11"]
    sc, E3 = K.sc, GenLabel("E", 3)
    D = deformation(K, 1)
    pos, _ = D.A[E3].first_nonzero()
    A = {**D.A, E3: with_entry(D.A[E3], pos, Fraction(1))}
    expected = pairwise_of(A, sc)
    assert expected and superbracket_violations(A, sc) == expected
    assert algebra._presented({lab: mat for lab, mat in A.items()
                               if lab != E3}, sc)
    (item,) = violations_report("base relations",
                                "superbracket table reproduced", sc.basis,
                                sc.generators, expected).items
    report = block_relations_report(block(D.replace(A=A), 2))
    assert report.items[0] == item and not item.passed


PRESENTED_MODULES = {"sl21": MODULES["sl21_a1"], "sl31": MODULES["sl31_a11"],
                     "sl12": build_kac("sl", 1, 2, (1,)),
                     "gl21": MODULES["gl21_a1"]}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_target_corruptions_match_the_pairwise_loop(data):
    """One entry of one target changed (a value, a new entry or a removed
    one, constant or times b), with the module given on its generator
    surface or with every nonsimple root vector too: the check's list is
    the pairwise loop's, and where the presentation proves the check the
    loop finds nothing."""
    K = PRESENTED_MODULES[data.draw(st.sampled_from(sorted(PRESENTED_MODULES)))]
    sc = K.sc
    mats = dict(K.matrices) if data.draw(st.booleans()) else \
        extend_matrices(K.matrices, sc.recipes)
    label = data.draw(st.sampled_from(sorted(mats)))
    entries = mats[label].entries
    kind = data.draw(st.sampled_from(["value", "new", "removed"]))
    value = data.draw(st.sampled_from([Fraction(1), Fraction(-2, 3)]))
    if data.draw(st.booleans()):
        value = ParamPoly.var(K.params, "b") * value
    if kind == "new" or not entries:
        pos = data.draw(st.tuples(st.integers(0, K.dim - 1),
                                  st.integers(0, K.dim - 1))
                        .filter(lambda rc: rc not in entries))
    else:
        pos = data.draw(st.sampled_from(sorted(entries)))
        if kind == "removed":
            value = -entries[pos]
    mats[label] = with_entry(mats[label], pos, value)
    expected = pairwise_of(mats, sc)
    assert superbracket_violations(mats, sc) == expected
    if algebra._presented(mats, sc):
        assert expected == []


def residuals_zero(mats, sc) -> list:
    """Whether each residual of the presentation is zero, in turn."""
    weights, simple, _, _, chains = sc.presentation
    reached = set(weights[0]).union(*simple)
    ties = [algebra._ties(mats, side, reached) for side in chains]
    return [residual.is_zero
            for residual in algebra._residuals(mats, sc.presentation, ties)]


def test_a_graded_rescaling_fails_only_r2():
    """rho'_t = 2^ht(t) rho_t on the raising targets, ht the height, keeps
    R1, the Serre relations and the ties, which are homogeneous in the
    height, and breaks [e_i, f_i] = h_i: only the R2 residuals are
    nonzero, and the check reports the pairwise loop's list."""
    K = MODULES["sl31_a11"]
    sc = K.sc
    _, (raising, _), cartan_sums, _, (chains, _) = sc.presentation
    height = {x: 1 for x in raising}
    for t, ((x, s, _), *_) in chains.items():
        height[t] = height[x] + height[s]
    mats = {lab: mat.scale(2 ** height[lab]) if lab in height else mat
            for lab, mat in K.matrices.items()}
    expected = pairwise_of(mats, sc)
    assert expected and superbracket_violations(mats, sc) == expected
    r2 = len(cartan_sums)
    zero = residuals_zero(mats, sc)
    assert zero == [False] * r2 + [True] * (len(zero) - r2)


def serre_only_targets() -> dict:
    """Targets on K(0) + K(2) of sl(2|1) that break [u_1, u_1} = 0 and
    no other relation of the presentation: every label acts block
    diagonally except u_1, which gains M: K(2) -> K(0) of weight beta
    above the diagonal, and u_2, the bracket of its chain.  M solves the
    relations of R2 and R3 that hold u_1 once, [M, f_1] = 0,
    {M, v_1} = 0 and [e_1, [e_1, M]] = 0, by a dense solve; its
    {u_1, M} is not zero."""
    top, low = build_kac("sl", 2, 1, (0,)), build_kac("sl", 2, 1, (2,))
    sc, params, dim = top.sc, top.params, top.dim + low.dim
    cartan = [lab for lab in sc.basis if lab.kind in CARTAN]
    beta = [sc.bracket(h, U1)[U1] for h in cartan]
    pos = [(r, c) for r in range(top.dim) for c in range(low.dim)
           if all(top.matrices[h].entry(r, r) - low.matrices[h].entry(c, c)
                  == ParamPoly.const(params, w) for h, w in zip(cartan, beta))]
    f1 = GenLabel("f", 1)

    def constraints(M) -> list:
        inner = combination([(1, top.matrices[E1], M),
                             (-1, M, low.matrices[E1])])
        return [combination([(1, M, low.matrices[f1]),
                             (-1, top.matrices[f1], M)]),
                combination([(1, M, low.matrices[V1]),
                             (1, top.matrices[V1], M)]),
                combination([(1, top.matrices[E1], inner),
                             (-1, inner, low.matrices[E1])])]

    entries, rows = {}, {}
    for j, p in enumerate(pos):
        unit = PolyMatrix(top.dim, low.dim, params, {p: 1})
        for k, mat in enumerate(constraints(unit)):
            for (r, c), val in mat.entries.items():
                for mono, coeff in val.terms.items():
                    row = rows.setdefault((k, r, c, mono), len(rows))
                    entries[row, j] = coeff
    _, kernel = dense_linear_solve(entries, len(rows), len(pos))
    for vec in kernel:
        M = PolyMatrix(top.dim, low.dim, params,
                       {p: x for p, x in zip(pos, vec) if x})
        if not combination([(1, top.matrices[U1], M),
                            (1, M, low.matrices[U1])]).is_zero:
            break
    else:
        raise AssertionError("no M breaks [u_1, u_1} alone")
    assert all(mat.is_zero for mat in constraints(M))

    def blocks(a, b, corner=None) -> PolyMatrix:
        out = {pos: val for pos, val in a.entries.items()}
        out.update({(top.dim + r, top.dim + c): val
                    for (r, c), val in b.entries.items()})
        if corner is not None:
            out.update({(r, top.dim + c): val
                        for (r, c), val in corner.entries.items()})
        return PolyMatrix(dim, dim, params, out)

    mats = {lab: blocks(top.matrices[lab], low.matrices[lab],
                        M if lab == U1 else None) for lab in top.matrices}
    u2 = GenLabel("u", 2)
    (x, s, c), *_ = sc.presentation[4][0][u2]
    mats[u2] = combination(sbracket(parity_of(x), parity_of(s), mats[x],
                                    mats[s])).scale(1 / c)
    return mats


def test_a_serre_only_failure_fails_only_r3():
    """Only the raising Serre residual of the presentation is nonzero,
    and the check reports the pairwise loop's list, (u_1, u_1)
    included."""
    mats = serre_only_targets()
    sc = MODULES["sl21_a1"].sc
    zero = residuals_zero(mats, sc)
    r3 = len(sc.presentation[2])
    assert zero == [index != r3 for index in range(len(zero))]
    expected = pairwise_of(mats, sc)
    assert (U1, U1) in [pair for pair, _ in expected]
    assert superbracket_violations(mats, sc) == expected


@pytest.mark.parametrize("sc", GENERATION_CASES.values(),
                         ids=GENERATION_CASES.keys())
def test_each_residual_sums_relations_of_distinct_weights(sc):
    """The premise of one residual per group of relations: in each R2
    residual the weights alpha_x + alpha_y differ over y, and on each side
    the weights of the Serre relations differ, none is a root, and those
    of the tied labels differ.  A table other than the built one has no
    presentation."""
    if sc.basis != structure_constants(build_fundamental_rep(sc.spec)).basis:
        assert sc.presentation is None
        return
    weights, (_, lowering), cartan_sums, serre, chains = sc.presentation
    alpha = weights[2]

    def weight(node) -> tuple:
        if node.__class__ is GenLabel:
            return alpha[node]
        return tuple(map(sum, zip(*map(weight, node))))

    roots = {alpha[lab] for lab in sc.basis if lab.kind not in CARTAN}
    for x, _ in cartan_sums:
        found = [weight((x, y)) for y in lowering]
        assert len(set(found)) == len(found)
    for relations, side in zip(serre, chains):
        found = [weight(tree) for tree in relations]
        assert len(set(found)) == len(found)
        assert not roots & set(found)
        assert len({alpha[t] for t in side}) == len(side)


def test_a_changed_table_has_no_presentation():
    sc = stack_sc("sl", 3, 1)
    assert sc.presentation is not None
    (pair, expansion), = list(sc.table.items())[:1]
    changed = with_terms(sc, [(pair, next(iter(expansion)), Fraction(1))])
    assert changed.presentation is None
    assert even_restriction(sc).presentation is None


def test_an_equal_table_shares_the_presentation_of_the_shared_one():
    """A table equal to ``algebra_of(spec)`` gets that table's very
    presentation; a corrupted copy of either gets None."""
    shared = algebra.algebra_of(SuperAlgebraSpec(3, 1, "sl"))
    sc = structure_constants(build_fundamental_rep(shared.spec))
    assert sc is not shared and sc.table is not shared.table
    assert sc.presentation is shared.presentation is not None
    (pair, expansion), = list(sc.table.items())[:1]
    for table in (sc, shared):
        changed = with_terms(table, [(pair, next(iter(expansion)),
                                      Fraction(1))])
        assert changed.presentation is None


@pytest.mark.parametrize("flavor,m,n,a,count", [
    ("sl", 3, 1, (1, 1), 13), ("sl", 4, 2, (0, 0, 0, 0), 21)],
    ids=["sl31", "sl42"])
def test_one_combination_per_presentation_residual(flavor, m, n, a, count,
                                                   monkeypatch):
    """A passing module check forms one sum per parity of the simple
    lowering targets and one R2 residual per simple raising x; per side,
    one inner bracket per edge of the Dynkin diagram and one for the
    quartic relation, then one R3 residual; and one R4 residual per
    side.  sl(3|1), on the chain e_1 - e_2 - u_1: 2 + 3, 2 x (2 + 1) and
    2.  sl(4|2), on e_1 - e_2 - e_3 - u_1 - e_4: 2 + 5, 2 x (4 + 1 + 1)
    and 2.  A return to per-part residuals or to ``extend_matrices``
    makes more calls."""
    K = build_kac(flavor, m, n, a)
    calls = count_products(monkeypatch)
    assert superbracket_violations(K.matrices, K.sc) == []
    assert calls["combination"] == count


def keys_agree(columns, shifts, rows) -> None:
    """_weight_keys compares keys exactly where the vectors agree."""
    keys, label_keys = algebra._weight_keys(columns, shifts, rows)
    for r, c in itertools.product(range(rows), repeat=2):
        for lab, vec in shifts.items():
            same = all(col.get(r, 0) - col.get(c, 0) == vec[k]
                       for k, col in enumerate(columns))
            assert (keys[r] - keys[c] == label_keys[lab]) == same


def test_weight_keys_are_exact_at_the_edge_of_the_base():
    """Column 0 spans 3 and its shifts reach 3 in size, so E = 6: row 1
    against row 0 under the shift (-3, 2) has the digits (6, -1), which
    read as 6 - 6 = 0 in base E = 6.  The keys take base E + 1 = 7."""
    columns = [{0: 0, 1: 3}, {1: 1}]
    shifts = {"x": (-3, 2), "unit": (0, 1), "zero": (0, 0)}
    keys, label_keys = algebra._weight_keys(columns, shifts, 2)
    assert label_keys["unit"] == 7
    assert 6 + (-1) * 6 == 0
    assert keys[1] - keys[0] != label_keys["x"]
    keys_agree(columns, shifts, 2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_weight_keys_are_exact(data):
    rows = data.draw(st.integers(1, 4))
    width = data.draw(st.integers(1, 3))
    columns = [data.draw(st.dictionaries(st.integers(0, rows - 1),
                                         st.integers(-5, 5)))
               for _ in range(width)]
    shifts = {i: tuple(data.draw(st.lists(st.integers(-9, 9), min_size=width,
                                          max_size=width)))
              for i in range(data.draw(st.integers(1, 4)))}
    keys_agree(columns, shifts, rows)
