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
"""

import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from superkac import algebra, matryoshka
from superkac.algebra import (GenLabel, SuperAlgebraSpec, bracket_violations,
                              build_fundamental_rep, check_super_relations,
                              extend_matrices, sbracket, structure_constants,
                              super_jacobi_report, superbracket_violations,
                              violations_report)
from superkac.evenrep import build_even_irrep
from superkac.exact import ParamPoly, PolyMatrix, combination
from superkac.kacmod import induce
from superkac.matryoshka import (ReplicatedModule, block_relations_report,
                                 deformation, derivative_report,
                                 derivative_violations)
from dense_oracles import dense_rref
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


def ref_violations(labels, parity, table, bracket, targets,
                   first_only=False) -> list:
    """Every violating ordered pair of ``labels``, or only the first."""
    out = []
    for la, lb in itertools.product(labels, repeat=2):
        residual = ref_combination(
            [(1, bracket(la, lb, parity[la], parity[lb]), None)]
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
            left, right, coeff = recipes[label]
            out[label] = ref_combination(
                [(coeff, ref_sbracket(0, 0, ensure(left), ensure(right)),
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
    return induce(build_even_irrep(sc.datum, a, sc), sc.datum, sc)


MODULES = {"sl21_a1": build_kac("sl", 2, 1, (1,)),
           "gl21_a1": build_kac("gl", 2, 1, (1,)),
           "sl31_a11": build_kac("sl", 3, 1, (1, 1))}
E1, U1, V1 = GenLabel("e", 1), GenLabel("u", 1), GenLabel("v", 1)


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


def ref_superbracket(K, first_only=False) -> list:
    """The reference violations of K's superbracket table on all pairs."""
    sc = K.sc
    mats = ref_extended(K.matrices, sc.recipes)
    return ref_violations(
        sc.basis, sc.parity, sc.table,
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


def ref_derivative(sc, A, B, first_only=False) -> dict:
    """The reference violations of identities (ii) and (iii) on all pairs."""
    return {
        "(ii) linearized relations [A_a,B_b] + [B_a,A_b] = f.B": ref_violations(
            sc.basis, sc.parity, sc.table,
            lambda la, lb, pa, pb: ref_combination(
                [(1, ref_sbracket(pa, pb, A[la], B[lb]), None),
                 (1, ref_sbracket(pa, pb, B[la], A[lb]), None)]), B,
            first_only),
        "(iii) [B_a,B_b] = 0": ref_violations(
            sc.basis, sc.parity, {},
            lambda la, lb, pa, pb: ref_sbracket(pa, pb, B[la], B[lb]), B,
            first_only),
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
    """The base kept true and one entry of one derivative matrix B bumped,
    where A has its first nonzero entry."""
    K = MODULES[name]
    D = deformation(K, *directions(K))
    A, B = ref_deformation(K, *directions(K))
    pos, _ = D.A[label].first_nonzero()
    one = ParamPoly.const(K.params, 1)
    bumped = D.replace(B={**D.B, label: D.B[label] + PolyMatrix(
        K.dim, K.dim, K.params, {pos: one})})
    B[label] = ref_combination([(1, B[label], None), (1, {pos: one}, None)])
    assert block_verdicts([], derivative_violations(bumped, 3)) == \
        block_verdicts([], ref_derivative(K.sc, A, B, first_only=True)) == \
        [False, True, True]


@pytest.mark.parametrize("name", MODULES)
def test_coboundary_verdicts_match_full_reference(name):
    """The coboundary [A_y, A] added to every B keeps (ii) and breaks (iii)."""
    K = MODULES[name]
    D = deformation(K, *directions(K))
    A, B = ref_deformation(K, *directions(K))
    y = GenLabel("y")
    cobound = D.replace(B={
        lab: mat + D.A[y] @ D.A[lab] - D.A[lab] @ D.A[y]
        for lab, mat in D.B.items()})
    B = {lab: ref_combination(
        [(1, B[lab], None), (1, ref_sbracket(0, 0, A[y], A[lab]), None)])
        for lab in B}
    assert block_verdicts([], derivative_violations(cobound, 3)) == \
        block_verdicts([], ref_derivative(K.sc, A, B, first_only=True)) == \
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
    assert bracket_violations(sc.basis, sc.generators, sc.parity, sc.table,
                              bracket, mats) == []
    # the table is graded-antisymmetric, so exactly the pairs listed with
    # the first label no later than the second are computed
    computed = sum(1 for la, lb in itertools.product(sc.basis, repeat=2)
                   if order[la] <= order[lb]
                   and (la in sc.generators or lb in sc.generators))
    assert calls == {"bracket": computed, "combination": computed}


def test_one_bracket_per_computed_jacobi_generator_pair(monkeypatch):
    """super_jacobi_report brackets the ad matrices of the generator pairs
    only: a return to all n^2 pairs makes more calls."""
    sc = stack_sc("sl", 3, 1)
    order = {lab: pos for pos, lab in enumerate(sc.basis)}
    calls = {"bracket": 0, "combination": 0}

    def counted_bracket(*args):
        calls["bracket"] += 1
        return sbracket(*args)

    def counted(terms):
        calls["combination"] += 1
        return combination(terms)

    monkeypatch.setattr(algebra, "sbracket", counted_bracket)
    monkeypatch.setattr(algebra, "combination", counted)
    assert super_jacobi_report(sc).ok
    computed = sum(1 for la, lb in itertools.product(sc.basis, repeat=2)
                   if order[la] <= order[lb]
                   and (la in sc.generators or lb in sc.generators))
    n = len(sc.basis)
    assert computed < n * (n + 1) // 2
    assert calls == {"bracket": computed, "combination": computed}


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
    even = tuple(lab for lab in sc.basis if not sc.parity[lab])
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
            sc.basis, sc.generators, sc.parity, table,
            lambda la, lb, pa, pb: sbracket(pa, pb, mats[la], mats[lb]), mats)
        ref = ref_extended(self.K.matrices, sc.recipes)
        expected = on_generator_pairs(ref_violations(
            sc.basis, sc.parity, table,
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
        sign = Fraction(-1) if (sc.parity[a] and sc.parity[b]) else Fraction(1)
        lhs = bracket_combo(a, sc.bracket(b, c))
        rhs = {}
        for target, coeff in bracket_combo(c, sc.bracket(a, b)).items():
            s = Fraction(-1) if (sc.parity[c] and (sc.parity[a] ^ sc.parity[b])) \
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

    def spy(*args):
        seen.append(bracket_violations(*args))
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
        pa, pb = sc.parity[a], sc.parity[b]
        if a == b and not pa:
            continue                  # [a, a] = 0 for even a
        targets = [t for t in sc.basis if sc.parity[t] == pa ^ pb]
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
                          if sc.parity[t] == sc.parity[a] ^ sc.parity[b])
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
    """On true modules both premises hold, and for N = 1, 2, 3 the report
    equals (i) plus the direct (ii)-(iii), item for item, without
    computing the latter."""
    D = deformation(LEMMA_MODULES[name], *nu)
    assert D.nu == nu and D.is_derivative() and D.affine_along()
    for N in (1, 2, 3):
        expected = direct_items(D, N)
        calls = count_direct(monkeypatch)
        got = block_relations_report(block(D, N))
        assert got.items == expected and got.ok
        assert len(got.items) == N and calls == []


def test_passing_module_forms_no_product(monkeypatch):
    """With (i) passing, (ii)-(iii) call no relation checker, and the
    premises form no matrix product."""
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


def conjugated(K):
    """K conjugated by g = I + b E, E a matrix unit with E^2 = 0 placed so
    that g moves the first entry of u_1: a true module whose matrices have
    terms of degree 3 in b."""
    (r, c), _ = K.matrices[U1].first_nonzero()
    E = PolyMatrix(K.dim, K.dim, K.params, {(c, r): ParamPoly.var(K.params, "b")})
    eye = PolyMatrix.identity(K.dim, K.params)
    g, g_inv = eye + E, eye - E
    return K.replace(matrices={lab: g @ mat @ g_inv
                               for lab, mat in K.matrices.items()})


def failed_premise(name, case):
    """A deformation of MODULES[name] on which (i), P1 or P2 fails."""
    K = MODULES[name]
    D = deformation(K, *directions(K))
    if case == "bumped":
        pos, _ = D.A[U1].first_nonzero()
        one = ParamPoly.const(K.params, 1)
        return D.replace(B={**D.B, U1: D.B[U1] + PolyMatrix(
            K.dim, K.dim, K.params, {pos: one})})
    if case == "cobound":
        y = GenLabel("y")
        return D.replace(B={lab: mat + D.A[y] @ D.A[lab] - D.A[lab] @ D.A[y]
                            for lab, mat in D.B.items()})
    if case == "u1_b":
        return deformation(case_module(name, "u1_b"), *directions(K))
    return deformation(conjugated(K), *directions(K))


PREMISE_CASES = [(name, case) for name in MODULES
                 for case in ("bumped", "cobound", "u1_b", "b_cubed")]


@pytest.mark.parametrize("name,case", PREMISE_CASES,
                         ids=[f"{n}-{c}" for n, c in PREMISE_CASES])
def test_failed_premise_takes_the_direct_path(name, case, monkeypatch):
    """A failing (i) or a failed premise computes (ii)-(iii) directly, and
    the report is item for item that of the direct path, failures with
    their counts and locators included."""
    D = failed_premise(name, case)
    base_ok = check_super_relations(D.base.matrices, D.base.sc).ok
    assert (base_ok, D.is_derivative(), D.affine_along()) == {
        "bumped": (True, False, True), "cobound": (True, False, True),
        "u1_b": (False, True, True), "b_cubed": (True, True, False)}[case]
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
            assert failing == {"bumped": ["(ii) ", "(iii)"][:N - 1],
                               "cobound": ["(iii)"][:N - 2],
                               "b_cubed": ["(iii)"][:N - 2]}[case]


def test_degree_along_the_direction_counts_moved_parameters_only():
    """The b^3 module twisted along z0 alone is affine along D = d/dc, so
    the lemma proves its (iii), and the direct path agrees."""
    D = deformation(conjugated(MODULES["gl21_a1"]), 0, 1)
    assert D.is_derivative() and D.affine_along()
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
        pa, pb = sc.parity[la], sc.parity[lb]
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
