"""Exact arithmetic substrate: ring laws, evaluation, derivatives, RREF."""

import copy
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from block_oracle import part_over
from dense_oracles import ExactSolver, dense_linear_solve, dense_rref
from setup_oracles import rational_entries
from superkac import exact
from superkac.exact import (DeclarationError, ParamPoly,
                            ParameterizedEntryError, PolyMatrix, _reduced,
                            combination, echelon_insert,
                            extract_rational_roots, integer_product,
                            integer_rref, kronecker_sum, nullspace)

PARAMS = ("b", "c")


def b():
    return ParamPoly.var(PARAMS, "b")


def c():
    return ParamPoly.var(PARAMS, "c")


def const(x):
    return ParamPoly.const(PARAMS, x)


class TestPolyArith:
    def test_difference_of_squares(self):
        assert (b() + 1) * (b() - 1) == b() * b() - 1

    def test_additive_identity(self):
        p = 3 * b() * c() - const(Fraction(7, 5))
        assert p + ParamPoly.zero(PARAMS) == p

    def test_rational_cancellation(self):
        assert const(Fraction(3, 2)) * b() * const(Fraction(2, 3)) == b()

    def test_mismatched_parameter_lists_rejected(self):
        other = ParamPoly.var(("b",), "b")
        with pytest.raises(DeclarationError):
            b() + other

    def test_no_zero_terms_stored(self):
        p = b() - b()
        assert p.terms == {} and p.is_zero


class TestSubstitute:
    def test_root_evaluation(self):
        p = b() * b() - 1
        assert p.substitute({"b": 1}).is_zero

    def test_partial_substitution(self):
        p = b() + c()
        out = p.substitute({"b": Fraction(5, 7)})
        assert out == c() + const(Fraction(5, 7))

    def test_constants_unaffected(self):
        p = const(4)
        assert p.substitute({"b": Fraction(123, 7)}) == p

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DeclarationError):
            b().substitute({"t": 1})


class TestDerivative:
    def test_linear(self):
        k, q = Fraction(-1, 2), Fraction(7)
        p = const(k) * b() + const(q)
        assert p.derivative("b") == const(k)

    def test_independent_parameter(self):
        assert c().derivative("b").is_zero

    def test_product_with_variable(self):
        # d/dc (c * b) = b
        assert (c() * b()).derivative("c") == b()


# randomized structural properties
poly_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    max_size=4)
polys = poly_terms.map(lambda terms: ParamPoly(PARAMS, terms))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p * q == q * p


@settings(deadline=None, max_examples=60)
@given(polys, polys, rationals)
def test_arithmetic_matches_the_validating_constructor(p, q, x):
    """Sums, differences, negation and rational scaling, which wrap their
    terms without the constructor's checks, equal the constructor applied
    to the term-wise definition and store no zero coefficient."""

    def combined(*signed):
        terms = {}
        for sign, poly in signed:
            for exps, coeff in poly.terms.items():
                terms[exps] = terms.get(exps, 0) + sign * coeff
        return ParamPoly(PARAMS, terms)

    r = ParamPoly(PARAMS, {(0, 0): x})
    cases = [(p + q, combined((1, p), (1, q))),
             (p - q, combined((1, p), (-1, q))),
             (-p, combined((-1, p))),
             (p + x, combined((1, p), (1, r))),
             (p - x, combined((1, p), (-1, r))),
             (x - p, combined((1, r), (-1, p))),
             (p * x, combined((x, p)))]
    for got, expected in cases:
        assert got == expected
        assert all(isinstance(coeff, Fraction) and coeff != 0
                   for coeff in got.terms.values())


@settings(deadline=None, max_examples=200)
@given(polys, st.one_of(st.integers(-4, 4), rationals),
       st.sampled_from(["drawn", "cancel", "negated"]))
def test_rational_sums_match_the_polynomial_path(p, x, kind):
    """p + x, p - x, x + p and x - p with x an int or a Fraction, which add
    x straight into the constant term, equal the sums with the constant
    polynomial x; drawn cases include sums that cancel the constant."""
    constant = p.terms.get((0, 0), Fraction(0))
    if kind == "cancel":
        x = constant
    elif kind == "negated":
        x = -constant
    r = ParamPoly.const(PARAMS, x)
    for got, want in ((p + x, p + r), (p - x, p - r),
                      (x + p, r + p), (x - p, r - p)):
        assert got == want
        assert got.terms == want.terms
        assert all(type(coeff) is Fraction and coeff != 0
                   for coeff in got.terms.values())
    if kind == "cancel" and constant:
        assert (0, 0) not in (p - x).terms


class TestPolyHash:
    def test_constants_minus_one_and_minus_two_hash_apart(self):
        # hash(-1) == hash(-2) in CPython, so hashing the Fractions as they
        # are gives b - 1 and b - 2 one hash
        assert hash(b() - 1) != hash(b() - 2)
        assert hash(const(-1)) != hash(const(-2))
        assert hash(b() * Fraction(-1, 3)) != hash(b() * Fraction(-2, 3))

    def test_equal_polynomials_hash_equal(self):
        built = ParamPoly(PARAMS, {(1, 0): 1, (0, 0): Fraction(-2, 2)})
        assert built == b() - 1 and hash(built) == hash(b() - 1)


@settings(deadline=None, max_examples=60)
@given(polys, polys)
def test_hash_agrees_with_equality(p, q):
    twin = ParamPoly(PARAMS, dict(reversed(list(p.terms.items()))))
    assert twin == p and hash(twin) == hash(p)
    if p == q:
        assert hash(p) == hash(q)


@settings(deadline=None, max_examples=60)
@given(polys, polys, rationals, rationals)
def test_substitution_is_a_homomorphism(p, q, bv, cv):
    binding = {"b": bv, "c": cv}
    assert (p + q).substitute(binding) == p.substitute(binding) + q.substitute(binding)
    assert (p - q).substitute(binding) == p.substitute(binding) - q.substitute(binding)
    assert (p * q).substitute(binding) == p.substitute(binding) * q.substitute(binding)


@settings(deadline=None, max_examples=60)
@given(polys, polys, rationals, rationals)
def test_derivative_linear_and_leibniz(p, q, x, y):
    d = lambda f: f.derivative("b")
    assert d(p * x + q * y) == d(p) * x + d(q) * y
    assert d(p * q) == d(p) * q + p * d(q)


def dense(data, params=()) -> PolyMatrix:
    """The matrix of a list of equal-length rows."""
    return PolyMatrix(len(data), len(data[0]), params,
                      {(r, c): x for r, row in enumerate(data)
                       for c, x in enumerate(row)})


def linear_solve(m: PolyMatrix) -> tuple:
    """(rank, nullspace) of a parameter-free matrix, read off the integer
    RREF of its integer rows."""
    pivots, rows = integer_rref(m.integer_term()[1].values())
    return len(pivots), nullspace(pivots, rows, m.cols)


class TestLinearSolve:
    def test_identity(self):
        assert linear_solve(PolyMatrix.identity(3, ())) == (3, ())

    def test_proportional_rows(self):
        assert linear_solve(dense([[1, 2], [2, 4]])) == \
            (1, ((Fraction(-2), Fraction(1)),))

    def test_sl2_shapovalov_depth3_singular_at_a2(self):
        # Gram value of the depth-3 lowering string from e f^n L = n(a-n+1) f^(n-1) L:
        # product over n = 1..3 of n(a-n+1) at a=2 hits the zero factor 3*(2-3+1).
        a = 2
        gram = Fraction(1)
        for n in (1, 2, 3):
            gram *= Fraction(n * (a - n + 1))
        assert gram == 0
        assert linear_solve(dense([[gram]])) == \
            (0, ((Fraction(1),),))

    def test_parameterized_entry_rejected(self):
        m = PolyMatrix(1, 1, PARAMS, {(0, 0): b()})
        with pytest.raises(ParameterizedEntryError):
            linear_solve(m)

    def test_deterministic_pivoting(self):
        m = dense([[0, 1, 1], [1, 1, 0], [1, 2, 1]])
        assert linear_solve(m) == linear_solve(m) == \
            (2, ((Fraction(1), Fraction(-1), Fraction(1)),))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3,
                                      max_denominator=3),
                         min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rref_nullspace_identities(rows):
    m = dense(rows)
    rank, basis = linear_solve(m)
    assert rank + len(basis) == m.cols
    for vec in basis:
        assert (m @ dense([[x] for x in vec])).is_zero


class TestExactSolver:
    def test_solve_and_inconsistency(self):
        solver = ExactSolver([[Fraction(1), Fraction(0), Fraction(1)],
                              [Fraction(0), Fraction(1), Fraction(1)]])
        assert solver.solve([Fraction(2), Fraction(3), Fraction(5)]) == \
            [Fraction(2), Fraction(3)]
        assert solver.solve([Fraction(2), Fraction(3), Fraction(6)]) is None


class TestRationalRoots:
    def test_full_factorization(self):
        p = (b() - 2) * (b() - 2) * (b() + const(Fraction(1, 3)))
        roots, cofactor = extract_rational_roots(p, "b")
        assert roots == [(Fraction(-1, 3), 1), (Fraction(2), 2)]
        assert cofactor.degree("b") == 0

    def test_root_at_zero(self):
        roots, _ = extract_rational_roots(b() * (b() + 1), "b")
        assert roots == [(Fraction(-1), 1), (Fraction(0), 1)]

    def test_constant_term_above_1e9(self):
        # the constant term is about 2.5e11; a divisor scan over 1..|k|
        # would take hours
        p = ((b() - 1000) * (b() + 999) * (b() - 997) * (3 * b() - 1)
             * (b() - 2) * (b() - 2) * (b() + 64))
        assert abs(p.substitute({"b": 0}).constant_value()) >= 10 ** 9
        start = time.process_time()
        roots, cofactor = extract_rational_roots(p, "b")
        assert time.process_time() - start < 1.0
        assert roots == [(Fraction(-999), 1), (Fraction(-64), 1),
                         (Fraction(1, 3), 1), (Fraction(2), 2),
                         (Fraction(997), 1), (Fraction(1000), 1)]
        assert cofactor == const(3)


class TestMatrixAlgebra:
    def test_lone_unit_term_is_returned_as_is(self):
        m = PolyMatrix(2, 2, PARAMS, {(0, 1): b(), (1, 0): Fraction(1, 3)})
        assert combination([(1, m, None)]) is m
        assert combination([(Fraction(1), m, None)]) is m
        assert m.scale(1) is m
        assert combination([(2, m, None)]) == m + m

    def test_matmul_against_dense(self):
        m1 = dense([[1, 2], [0, 1]], PARAMS)
        m2 = PolyMatrix(2, 2, PARAMS, {(0, 0): b(), (1, 0): c()})
        prod = m1 @ m2
        assert prod.entry(0, 0) == b() + 2 * c()
        assert prod.entry(1, 0) == c()
        assert prod.entry(0, 1).is_zero

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PolyMatrix(2, 3, ()) @ PolyMatrix(2, 3, ())

    def test_out_of_range_entry(self):
        with pytest.raises(IndexError):
            PolyMatrix(1, 1, (), {(1, 0): ParamPoly.const((), 1)})


# -- PolyMatrix storage against its entry-wise ParamPoly definition ----------

SIZE = 3
small_rationals = st.sampled_from(
    [Fraction(x) for x in (-2, -1, 1, 2)]
    + [Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 3), Fraction(2, 3),
       Fraction(3, 5), Fraction(-6, 5)])
# few monomials and coefficients, so sums and products cancel often
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), small_rationals,
    max_size=3).map(lambda terms: ParamPoly(PARAMS, terms))
positions = st.tuples(st.integers(0, SIZE - 1), st.integers(0, SIZE - 1))
# distinct indices in any order, possibly none
index_lists = st.lists(st.integers(0, SIZE - 1), max_size=SIZE, unique=True)


@st.composite
def entry_pairs(draw):
    """Entries of two SIZE x SIZE matrices; the second repeats some entries
    of the first negated, so their sum cancels there."""
    first = draw(st.dictionaries(positions, small_polys, max_size=6))
    second = draw(st.dictionaries(positions, small_polys, max_size=6))
    for pos in sorted(first):
        if draw(st.booleans()):
            second[pos] = -first[pos]
    return first, second


def nonzero(entries: dict) -> dict:
    return {pos: val for pos, val in entries.items() if not val.is_zero}


def matrix(entries: dict) -> PolyMatrix:
    return PolyMatrix(SIZE, SIZE, PARAMS, entries)


def assert_canonical(m: PolyMatrix):
    """Each term is int numerators over one positive denominator in lowest
    terms; no zero entry, empty row or empty term is stored, and the entry
    view round-trips through the constructor."""
    for den, rows in m.terms.values():
        assert type(den) is int and den > 0
        assert rows
        numerators = []
        for row in rows.values():
            assert row and all(type(x) is int and x != 0
                               for x in row.values())
            numerators += row.values()
        assert math.gcd(den, *numerators) == 1
    assert PolyMatrix(m.rows, m.cols, m.params, m.entries) == m


def assert_matches(m: PolyMatrix, entries: dict):
    assert_canonical(m)
    assert m.entries == nonzero(entries)
    assert m == PolyMatrix(m.rows, m.cols, m.params, entries)


@settings(deadline=None, max_examples=80)
@given(entry_pairs(), small_polys, small_rationals, small_rationals)
def test_ring_operations_match_entrywise(pair, poly, q, q2):
    ea, eb = pair
    a, b_ = matrix(ea), matrix(eb)
    zero = ParamPoly.zero(PARAMS)
    cells = [(r, c) for r in range(SIZE) for c in range(SIZE)]
    get = lambda e, pos: e.get(pos, zero)
    assert_canonical(a)
    assert_matches(a + b_, {p: get(ea, p) + get(eb, p) for p in cells})
    assert_matches(a - b_, {p: get(ea, p) - get(eb, p) for p in cells})
    assert_matches(-a, {p: -v for p, v in ea.items()})
    assert_matches(a @ b_, {
        (r, c): sum((get(ea, (r, k)) * get(eb, (k, c)) for k in range(SIZE)),
                    zero) for r, c in cells})
    assert_matches(a.scale(q), {p: v * q for p, v in ea.items()})
    assert_matches(a.scale(poly), {p: v * poly for p, v in ea.items()})
    assert_matches(combination([(q, a, b_), (q2, b_, a), (-q, a, None)]), {
        (r, c): sum((get(ea, (r, k)) * get(eb, (k, c)) * q
                     + get(eb, (r, k)) * get(ea, (k, c)) * q2
                     for k in range(SIZE)), zero) - get(ea, (r, c)) * q
        for r, c in cells})


@st.composite
def kronecker_cases(draw):
    """(size, base_dim, parts) for kronecker_sum.  W is a stored term
    (den, {row: {col: int}}), zeros and a factor common to den and the
    entries included, and a part may repeat an earlier B with some W
    entries negated, so that sums cancel; B is over (b, c), may be free of
    c, and may be zero."""
    size, base_dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    base_cells = st.tuples(st.integers(0, base_dim - 1),
                           st.integers(0, base_dim - 1))
    weights = st.sampled_from([0, 1, -2, 3, 4, -6])
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        den = draw(st.sampled_from([1, 2, 3, 5, 6]))
        w: dict = {}
        for (i, j), x in draw(st.dictionaries(cells, weights,
                                              max_size=4)).items():
            w.setdefault(i, {})[j] = x
        B = PolyMatrix(base_dim, base_dim, PARAMS,
                       draw(st.dictionaries(base_cells, small_polys,
                                            max_size=4)))
        if draw(st.booleans()):
            B = part_over(B, PARAMS, {"c": 0})
        parts.append(((den, w), B))
        if draw(st.booleans()):
            parts.append(((den, {i: {j: -x for j, x in row.items()
                                     if draw(st.booleans())}
                                 for i, row in w.items()}), B))
    return size, base_dim, parts


def dense_kronecker(size: int, base_dim: int, parts) -> PolyMatrix:
    """sum W (x) B added up entry by entry in ParamPolys and stored by the
    validating constructor."""
    entries: dict = {}
    for (den, w), B in parts:
        for i, row in w.items():
            for j, x in row.items():
                for (r, c), v in B.entries.items():
                    pos = (i * base_dim + r, j * base_dim + c)
                    entries[pos] = entries.get(pos, ParamPoly.zero(PARAMS)) \
                        + v * Fraction(x, den)
    return PolyMatrix(size * base_dim, size * base_dim, PARAMS, entries)


ONE_BY_ONE = PolyMatrix(1, 1, PARAMS, {(0, 0): b() - Fraction(2, 3)})


@settings(deadline=None, max_examples=120)
@given(kronecker_cases())
@example((2, 1, [((1, {}), ONE_BY_ONE)]))                     # empty W
@example((2, 1, [((2, {0: {1: 1}}), ONE_BY_ONE),
                 ((2, {0: {1: -1}}), ONE_BY_ONE)]))           # cancelling W
@example((2, 2, [((4, {0: {0: 4}, 1: {0: 3}}),
                  PolyMatrix(2, 2, PARAMS))]))            # zero B
@example((3, 1, [((5, {0: {2: 10}, 2: {1: -2}}), ONE_BY_ONE),
                 ((1, {1: {1: 1}}), PolyMatrix(1, 1, PARAMS,
                                               {(0, 0): c() * b()}))]))
@example((2, 1, [((6, {0: {0: 4, 1: 0}, 1: {}}), ONE_BY_ONE)]))  # 4/6, 0
@example((2, 1, [((1, {0: {1: 1}}), PolyMatrix.identity(1, PARAMS)),
                 ((1, {0: {1: 2}, 1: {0: 1}}),
                  PolyMatrix.identity(1, PARAMS))]))    # W (x) I summed
@example((2, 1, [((2, {0: {1: 3}, 1: {1: 1}}),
                  PolyMatrix(1, 1, PARAMS, {(0, 0): 4 * b()}))]))  # 4/2
def test_kronecker_sum_matches_dense_kronecker(case):
    size, base_dim, parts = case
    given_w = copy.deepcopy([W for W, _ in parts])
    got = kronecker_sum(size, base_dim, PARAMS, parts)
    want = dense_kronecker(size, base_dim, parts)
    assert_canonical(got)
    assert (got.rows, got.cols, got.params) == (want.rows, want.cols,
                                                want.params)
    assert got.terms == want.terms
    # the result may share the rows of W, but never changes them
    assert [W for W, _ in parts] == given_w


B_TWO = PolyMatrix(2, 2, PARAMS, {(0, 0): b(), (0, 1): 3 * b() + const("1/2"),
                                  (1, 0): c()})
TWICE_B00 = PolyMatrix(2, 2, PARAMS, {(0, 0): 2 * b()})


@pytest.mark.parametrize("parts, cancels", [
    # one part: no sum, nothing to cancel
    ([((1, {0: {0: 1}, 1: {1: 2}}), B_TWO)], False),
    # entry (0, 0) of the b term cancels, row 0 keeps (0, 1)
    ([((1, {0: {0: 1}}), B_TWO), ((2, {0: {0: -1}}), TWICE_B00)], True),
    # block row 0 cancels in every term, block row 1 stays
    ([((1, {0: {0: 1}, 1: {1: 1}}), B_TWO), ((3, {0: {0: -3}}), B_TWO)],
     True),
], ids=["no-sum", "entry", "row"])
def test_kronecker_sum_cancellation_gives_the_dense_sum(parts, cancels,
                                                        monkeypatch):
    """An accumulation in which no sum cancels skips the zero scans of
    ``_reduced``; one in which an entry or a whole row cancels runs them,
    and either way the pencil is the canonical one of the dense sum."""
    clean_flags = []

    def recorded(den, acc, clean=False):
        clean_flags.append(clean)
        return _reduced(den, acc, clean)

    monkeypatch.setattr(exact, "_reduced", recorded)
    got = kronecker_sum(2, 2, PARAMS, parts)
    want = dense_kronecker(2, 2, parts)
    assert_canonical(got)
    assert got.terms == want.terms
    assert (False in clean_flags) == cancels
    if cancels:
        assert got != kronecker_sum(2, 2, PARAMS, parts[:1])


def reduced_by_comprehension(den: int, acc: dict):
    """The canonical term of acc / den with every row rebuilt: the
    reference for ``exact._reduced``, which rebuilds only rows that hold a
    zero."""
    rows = {}
    g = den
    for r, row in acc.items():
        row = {c: x for c, x in row.items() if x}
        if row:
            rows[r] = row
            if g != 1:
                g = math.gcd(g, *row.values())
    if not rows:
        return None
    if g != 1:
        den //= g
        rows = {r: {c: x // g for c, x in row.items()}
                for r, row in rows.items()}
    return den, rows


accumulators = st.dictionaries(
    st.integers(0, 6),
    st.dictionaries(st.integers(0, 6),
                    st.one_of(st.just(0), st.integers(-12, 12)),
                    max_size=5),
    max_size=5)


def ordered(term):
    """A term with its row and column order spelled out."""
    if term is None:
        return None
    den, rows = term
    return den, [(r, list(row.items())) for r, row in rows.items()]


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 12), accumulators)
@example(1, {0: {0: 0, 3: 2}, 2: {1: 0}, 4: {2: -4, 5: 6}})   # den = 1
@example(6, {0: {1: 0, 2: 0}, 1: {}, 3: {0: 0}})              # all-zero rows
@example(6, {0: {1: 2, 2: -4}, 5: {0: 8}})                    # zero-free
@example(4, {1: {0: 0, 2: 6}, 2: {3: 2, 4: 0, 5: -10}})       # zero entries
def test_reduced_matches_the_comprehension_reference(den, acc):
    want = reduced_by_comprehension(den, acc)
    got = _reduced(den, {r: dict(row) for r, row in acc.items()})
    assert ordered(got) == ordered(want)
    if all(row and all(row.values()) for row in acc.values()):
        # no zero entry and no empty row: the caller may skip their scans
        got = _reduced(den, {r: dict(row) for r, row in acc.items()}, True)
        assert ordered(got) == ordered(want)


@pytest.mark.parametrize("params", [(), ("b",), ("b", "c")])
@pytest.mark.parametrize("n", range(6))
def test_identity_matches_the_entry_constructor(n, params):
    got = PolyMatrix.identity(n, list(params))
    assert_canonical(got)
    assert got == PolyMatrix(n, n, params, {(i, i): 1 for i in range(n)})


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 12), accumulators)
def test_from_term_is_the_inverse_of_integer_term(den, acc):
    # zero entries and a factor common to den and the entries are allowed
    entries = {(r, c): Fraction(x, den) for r, row in acc.items()
               for c, x in row.items()}
    got = PolyMatrix.from_term(
        7, 7, PARAMS, (den, {r: dict(row) for r, row in acc.items()}))
    assert_canonical(got)
    assert got == PolyMatrix(7, 7, PARAMS, entries)
    assert PolyMatrix.from_term(7, 7, PARAMS, got.integer_term()) == got


def test_from_term_rejects_entries_outside():
    for rows in ({SIZE: {0: 1}}, {0: {SIZE: 1}}, {0: {-1: 1}}):
        with pytest.raises(IndexError):
            PolyMatrix.from_term(SIZE, SIZE, PARAMS, (1, rows))


def test_kronecker_sum_refuses_a_factor_over_other_params():
    """As in ``combination``, every factor is over the sum's params: one
    over fewer or reordered params raises, even with an empty W."""
    for B in (part_over(ONE_BY_ONE, ("b",)), part_over(ONE_BY_ONE, ("c", "b")),
              PolyMatrix.identity(1, ())):
        for W in ({0: {1: 1}}, {}):
            with pytest.raises(DeclarationError):
                kronecker_sum(2, 1, PARAMS, [((1, W), B)])


def test_kronecker_sum_rejects_misshapen_factors():
    with pytest.raises(ValueError):
        kronecker_sum(2, 2, PARAMS, [((1, {0: {0: 1}}), ONE_BY_ONE)])
    with pytest.raises(IndexError):
        kronecker_sum(2, 1, PARAMS, [((1, {0: {2: 1}}), ONE_BY_ONE)])
    with pytest.raises(IndexError):
        kronecker_sum(2, 1, PARAMS, [((1, {-1: {0: 1}}), ONE_BY_ONE)])
    with pytest.raises(IndexError):
        kronecker_sum(2, 1, PARAMS, [((1, {1: {-1: 1}}), ONE_BY_ONE)])


@settings(deadline=None, max_examples=80)
@given(entry_pairs(), rationals, rationals, index_lists, index_lists)
def test_maps_and_queries_match_entrywise(pair, bv, cv, pick_rows, pick_cols):
    ea, _ = pair
    a = matrix(ea)
    assert_matches(a.derivative("b"), {p: v.derivative("b") for p, v in ea.items()})
    assert_matches(a.substitute({"b": bv}),
                   {p: v.substitute({"b": bv}) for p, v in ea.items()})
    bound = {"b": bv, "c": cv}
    assert rational_entries(a.substitute(bound)) == {
        p: v.substitute(bound).constant_value()
        for p, v in ea.items() if not v.substitute(bound).is_zero}
    if not all(v.is_constant for v in ea.values()):
        with pytest.raises(ParameterizedEntryError):
            rational_entries(a)

    live = nonzero(ea)
    for name in PARAMS:
        assert a.degree(name) == max((v.degree(name) for v in live.values()),
                                     default=0)
    assert a.is_zero == (not live)
    assert repr(a) == f"PolyMatrix({SIZE}x{SIZE}, {len(live)} entries)"
    assert a.first_nonzero() == (
        (min(live), live[min(live)]) if live else None)
    for pos in ((r, c) for r in range(SIZE) for c in range(SIZE)):
        assert a.entry(*pos) == ea.get(pos, ParamPoly.zero(PARAMS))
    for rows, cols in ((pick_rows, pick_cols), ([], pick_cols),
                       (pick_rows, []), (range(SIZE)[::-1], pick_cols)):
        assert_matches(a.submatrix(rows, cols), {
            (i, j): ea[(r, c)] for i, r in enumerate(rows)
            for j, c in enumerate(cols) if (r, c) in ea})


def test_submatrix_rejects_repeated_and_outside_indices():
    a = PolyMatrix.identity(SIZE, PARAMS)
    with pytest.raises(ValueError):
        a.submatrix([0, 0], [1])
    with pytest.raises(ValueError):
        a.submatrix([0], [1, 1])
    with pytest.raises(IndexError):
        a.submatrix([SIZE], [0])
    with pytest.raises(IndexError):
        a.submatrix([0], [-1])


# -- the sparse kernel against the dense elimination it replaced ------------

# mostly zeros, so rows are sparse
sparse_rationals = st.sampled_from(
    [Fraction(0)] * 4 + [Fraction(x) for x in (1, -1, 2)]
    + [Fraction(-1, 3), Fraction(2, 3), Fraction(3, 5), Fraction(-6, 5)])


@st.composite
def sparse_matrices(draw, max_size=7):
    """Dense Fraction rows of any shape, tall or wide, with zero rows and,
    often, rows that combine earlier ones."""
    ncols = draw(st.integers(1, max_size))
    vector = st.lists(sparse_rationals, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(vector, min_size=0, max_size=max_size))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            q = draw(sparse_rationals)
            rows.insert(draw(st.integers(0, len(rows))),
                        [x + q * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    return rows, ncols


def sparse(row) -> dict:
    return {c: x for c, x in enumerate(row) if x}


@settings(deadline=None, max_examples=300)
@given(sparse_matrices())
def test_rref_matches_dense_oracle(matrix):
    rows, ncols = matrix
    dense = [list(row) for row in rows]
    want_pivots = dense_rref(dense, ncols)
    want = [sparse(row) for row in dense[:len(want_pivots)]]
    for order in (rows, rows[::-1]):
        pivots, integer_rows = integer_rref(sparse(row) for row in order)
        assert pivots == want_pivots
        assert [{c: Fraction(x, row[lead]) for c, x in row.items()}
                for lead, row in zip(pivots, integer_rows)] == want


@settings(deadline=None, max_examples=300)
@given(sparse_matrices())
def test_integer_rref_rows_are_the_rref_rows(matrix):
    # primitive rows, positive at their pivot and zero at every other
    # pivot, the same whatever the order of the input rows
    rows, _ = matrix
    pivots, integer_rows = integer_rref(sparse(row) for row in rows)
    assert (pivots, integer_rows) == \
        integer_rref(sparse(row) for row in rows[::-1])
    for lead, row in zip(pivots, integer_rows):
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1 and row[lead] > 0
        assert not set(row) & set(pivots) - {lead}


@settings(deadline=None, max_examples=200)
@given(sparse_matrices())
def test_linear_solve_matches_dense_oracle(matrix):
    rows, ncols = matrix
    entries = {(r, c): x for r, row in enumerate(rows)
               for c, x in sparse(row).items()}
    assert linear_solve(PolyMatrix(len(rows), ncols, (), entries)) == \
        dense_linear_solve(entries, len(rows), ncols)


@settings(deadline=None, max_examples=200)
@given(sparse_matrices())
def test_nullspace_matches_dense_oracle(matrix):
    # also on the integer rows of the matrix, each row times the lcm of its
    # denominators: scaling rows does not change the nullspace
    rows, ncols = matrix
    want = dense_linear_solve({(r, c): x for r, row in enumerate(rows)
                               for c, x in sparse(row).items()},
                              len(rows), ncols)
    integer_rows = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        integer_rows.append({c: int(x * den) for c, x in sparse(row).items()})
    for order in (rows, integer_rows):
        pivots, reduced = integer_rref(
            sparse(row) if isinstance(row, list) else row for row in order)
        assert (len(pivots), nullspace(pivots, reduced, ncols)) == want


@st.composite
def integer_factors(draw):
    """Small integer matrices of shapes n x k and k x p, often sparse."""
    n, k, p = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    matrix = lambda rows, cols: st.lists(
        st.lists(entry, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)
    return draw(matrix(n, k)), draw(matrix(k, p))


@settings(deadline=None, max_examples=200)
@given(integer_factors())
def test_integer_product_matches_matmul(factors):
    left, right = factors
    want = dense(left) @ dense(right)
    got = integer_product(
        {r: sparse(row) for r, row in enumerate(left) if any(row)},
        {r: sparse(row) for r, row in enumerate(right) if any(row)})
    assert got == (want.terms[()][1] if want.terms else {})


@settings(deadline=None, max_examples=200)
@given(sparse_matrices())
def test_echelon_insert_none_iff_in_span(matrix):
    rows, ncols = matrix
    echelon: dict = {}
    for k, row in enumerate(rows):
        before = dict(echelon)
        grows = dense_linear_solve(
            {(r, c): x for r, prev in enumerate(rows[:k + 1])
             for c, x in sparse(prev).items()}, k + 1, ncols)[0] > len(before)
        stored = echelon_insert(echelon, sparse(row))
        if not grows:
            assert stored is None and echelon == before
            continue
        # a primitive integer row, stored under its leading column
        (lead,) = set(echelon) - set(before)
        assert echelon[lead] is stored and min(stored) == lead
        assert all(type(x) is int and x for x in stored.values())
        assert math.gcd(*stored.values()) == 1


@st.composite
def augmented_systems(draw):
    """Full-column-rank columns of A, a vector x and a vector w."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, nrows))
    vector = lambda n: st.lists(sparse_rationals, min_size=n, max_size=n)
    columns = draw(st.lists(vector(nrows), min_size=ncols, max_size=ncols))
    rank = dense_linear_solve(
        {(r, c): x for c, col in enumerate(columns) for r, x in enumerate(col)},
        nrows, ncols)[0]
    assume(rank == ncols)
    return columns, draw(vector(ncols)), draw(vector(nrows))


def augmented_solve(columns, target):
    """x with A x = target read off the RREF of [A | target], or None if
    its last column has a pivot: the solve of the Cartan diagonal in
    ``structure_constants``."""
    width = len(columns)
    pivots, rows = integer_rref(
        sparse([col[r] for col in columns] + [t]) for r, t in enumerate(target))
    if width in pivots:
        return None
    return [Fraction(row.get(width, 0), row[lead])
            for lead, row in zip(pivots, rows)]


@settings(deadline=None, max_examples=150)
@given(augmented_systems())
def test_augmented_rref_solve_matches_dense_reference(system):
    columns, x, w = system
    nrows = len(columns[0])
    oracle = ExactSolver(columns)
    image = [sum((col[r] * xc for col, xc in zip(columns, x)), Fraction(0))
             for r in range(nrows)]
    assert augmented_solve(columns, image) == oracle.solve(image) == x
    assert augmented_solve(columns, w) == oracle.solve(w)


# -- products whose right factor has few stored rows -------------------------

@st.composite
def thin_products(draw):
    """combination terms (q, A, B) over PARAMS: A is n x n with n up to 12,
    B one column with a few stored rows or n x n, and every matrix has
    several exponent terms; A and B each appear in more than one term."""
    n = draw(st.integers(1, 12))
    cells = lambda cols: st.tuples(st.integers(0, n - 1),
                                   st.integers(0, cols - 1))
    cols = draw(st.sampled_from([1, n]))
    lefts = [PolyMatrix(n, n, PARAMS, draw(st.dictionaries(
        cells(n), small_polys, max_size=3 * n))) for _ in range(2)]
    rights = [PolyMatrix(n, cols, PARAMS, draw(st.dictionaries(
        cells(cols), small_polys, max_size=3 if cols == 1 else 3 * n)))
        for _ in range(2)]
    return [(draw(small_rationals), draw(st.sampled_from(lefts)),
             draw(st.sampled_from(rights))) for _ in range(3)]


@settings(deadline=None, max_examples=150)
@given(thin_products())
def test_thin_products_match_the_row_pass(terms):
    # one pass over the left rows is the entry-wise sum of products
    zero = ParamPoly.zero(PARAMS)
    cols = terms[0][2].cols
    want = {}
    for q, a, b_ in terms:
        ea, eb = a.entries, b_.entries
        for (r, k), x in ea.items():
            for c in range(cols):
                y = eb.get((k, c))
                if y is not None:
                    want[(r, c)] = want.get((r, c), zero) + x * y * q
    assert_matches(combination(terms), want)


# -- int coefficients taken as they are ---------------------------------------

@settings(deadline=None, max_examples=100)
@given(entry_pairs(), st.lists(st.integers(-4, 4), min_size=1, max_size=5))
@example(({(0, 0): const(1)}, {(1, 2): b()}), [0, 3, 0])
def test_int_coefficients_equal_fraction_ones(pair, ints):
    """combination with int coefficients, zeros among them, gives what the
    same call with Fraction coefficients or 'p/q' strings gives."""
    a, b_ = matrix(pair[0]), matrix(pair[1])
    factors = [(a, b_), (b_, a), (a, None), (b_, None)]
    terms = [(q, *factors[i % 4]) for i, q in enumerate(ints)]
    got = combination(terms)
    assert_canonical(got)
    assert got == combination([(Fraction(q), x, y) for q, x, y in terms])
    assert got == combination([(f"{2 * q}/2", x, y) for q, x, y in terms])


def test_float_coefficients_still_raise():
    a = PolyMatrix(2, 2, PARAMS, {(0, 1): b(), (1, 0): Fraction(1, 3)})
    for terms in ([(2.0, a, None)], [(1, a, a), (0.5, a, None)],
                  [(0.0, a, a)]):
        with pytest.raises(TypeError):
            combination(terms)
