"""Exact arithmetic substrate: ring laws, evaluation, derivatives, RREF."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkac.exact import (DeclarationError, ExactSolver, ParamPoly,
                            ParameterizedEntryError, PolyMatrix,
                            extract_rational_roots, rational_linear_solve)

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


class TestLinearSolve:
    def test_identity(self):
        res = rational_linear_solve(PolyMatrix.identity(3, ()))
        assert res.rank == 3 and res.nullspace == ()

    def test_proportional_rows(self):
        res = rational_linear_solve(PolyMatrix.from_rows([[1, 2], [2, 4]]))
        assert res.rank == 1
        assert res.nullspace == ((Fraction(-2), Fraction(1)),)

    def test_sl2_shapovalov_depth3_singular_at_a2(self):
        # Gram value of the depth-3 lowering string from e f^n L = n(a-n+1) f^(n-1) L:
        # product over n = 1..3 of n(a-n+1) at a=2 hits the zero factor 3*(2-3+1).
        a = 2
        gram = Fraction(1)
        for n in (1, 2, 3):
            gram *= Fraction(n * (a - n + 1))
        res = rational_linear_solve(PolyMatrix.from_rows([[gram]]))
        assert gram == 0
        assert res.rank == 0
        assert res.nullspace == ((Fraction(1),),)

    def test_parameterized_entry_rejected(self):
        m = PolyMatrix(1, 1, PARAMS, {(0, 0): b()})
        with pytest.raises(ParameterizedEntryError):
            rational_linear_solve(m)

    def test_deterministic_pivoting(self):
        m = PolyMatrix.from_rows([[0, 1, 1], [1, 1, 0], [1, 2, 1]])
        res1 = rational_linear_solve(m)
        res2 = rational_linear_solve(m)
        assert (res1.rank, res1.nullspace) == (res2.rank, res2.nullspace)
        assert res1.rank == 2
        assert res1.nullspace == ((Fraction(1), Fraction(-1), Fraction(1)),)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3,
                                      max_denominator=3),
                         min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rref_nullspace_identities(rows):
    m = PolyMatrix.from_rows(rows)
    res = rational_linear_solve(m)
    assert res.rank + len(res.nullspace) == m.cols
    for vec in res.nullspace:
        state = {i: ParamPoly.const((), x) for i, x in enumerate(vec) if x}
        image = m.apply(state)
        assert all(val.is_zero for val in image.values())


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


class TestMatrixAlgebra:
    def test_matmul_against_dense(self):
        m1 = PolyMatrix.from_rows([[1, 2], [0, 1]], PARAMS)
        m2 = PolyMatrix(2, 2, PARAMS, {(0, 0): b(), (1, 0): c()})
        prod = m1 @ m2
        assert prod.entry(0, 0) == b() + 2 * c()
        assert prod.entry(1, 0) == c()
        assert prod.entry(0, 1).is_zero

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PolyMatrix.zeros(2, 3, ()) @ PolyMatrix.zeros(2, 3, ())

    def test_out_of_range_entry(self):
        with pytest.raises(IndexError):
            PolyMatrix(1, 1, (), {(1, 0): ParamPoly.const((), 1)})
