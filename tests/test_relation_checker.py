"""The relation checker against a per-entry reference.

The reference is the full ordered-pair loop over {(row, col): ParamPoly}
entries.  The checker computes only the pairs (a, b) with a listed before b
and derives (b, a) wherever the table is graded-antisymmetric there, so its
lists must equal the reference's pair for pair: order, count, first entry
and residual.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from superkac.algebra import (GenLabel, SuperAlgebraSpec, bracket_violations,
                              build_fundamental_rep, extend_matrices, sbracket,
                              structure_constants, superbracket_violations)
from superkac.evenrep import build_even_irrep
from superkac.exact import ParamPoly, PolyMatrix
from superkac.kacmod import induce
from superkac.matryoshka import deformation, derivative_violations

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


def ref_violations(labels, parity, table, bracket, targets) -> list:
    out = []
    for la, lb in itertools.product(labels, repeat=2):
        residual = ref_combination(
            [(1, bracket(la, lb, parity[la], parity[lb]), None)]
            + [(-c, targets[t], None) for t, c in table.get((la, lb), {}).items()])
        if residual:
            pos = min(residual)
            out.append(((la, lb), pos, str(residual[pos])))
    return out


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
    return dataclasses.replace(K, matrices={**K.matrices, label: mat + bump})


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


@pytest.mark.parametrize("name,corruption", CASES,
                         ids=[f"{n}-{c or 'true'}" for n, c in CASES])
def test_superbracket_violations_match_reference(name, corruption):
    K = case_module(name, corruption)
    sc = K.sc
    mats = ref_extended(K.matrices, sc.recipes)
    expected = ref_violations(
        sc.basis, sc.parity, sc.table,
        lambda la, lb, pa, pb: ref_sbracket(pa, pb, mats[la], mats[lb]), mats)
    assert flat(superbracket_violations(K.matrices, sc)) == expected
    assert bool(expected) == (corruption is not None)
    if corruption == "u1_b":
        assert any("b^2" in residual for _, _, residual in expected)
        # a pair listed after its mirror is derived, not computed
        order = {lab: i for i, lab in enumerate(sc.basis)}
        assert any(order[lb] < order[la] for (la, lb), _, _ in expected)


@pytest.mark.parametrize("name,corruption", CASES,
                         ids=[f"{n}-{c or 'true'}" for n, c in CASES])
def test_derivative_violations_match_reference(name, corruption):
    K = case_module(name, corruption)
    sc = K.sc
    nu_y, nu_c = (Fraction(2), Fraction(-3)) if "c" in K.params \
        else (Fraction(1), Fraction(0))
    D = deformation(K, nu_y, nu_c)
    A = ref_extended(K.matrices, sc.recipes)
    B = {}
    for lab, entries in A.items():
        B[lab] = ref_combination([(1, {
            pos: val.derivative("b") * (sc.k * nu_y)
            + (val.derivative("c") * nu_c if nu_c else 0)
            for pos, val in entries.items()}, None)])
    expected = {
        "(ii) linearized relations [A_a,B_b] + [B_a,A_b] = f.B": ref_violations(
            sc.basis, sc.parity, sc.table,
            lambda la, lb, pa, pb: ref_combination(
                [(1, ref_sbracket(pa, pb, A[la], B[lb]), None),
                 (1, ref_sbracket(pa, pb, B[la], A[lb]), None)]), B),
        "(iii) [B_a,B_b] = 0": ref_violations(
            sc.basis, sc.parity, {},
            lambda la, lb, pa, pb: ref_sbracket(pa, pb, B[la], B[lb]), B),
    }
    got = {key: flat(v) for key, v in derivative_violations(D, 3).items()}
    assert got == expected
    if corruption is None:
        assert not any(expected.values())


class TestAntisymmetryGuard:
    """A table that is not graded-antisymmetric at a pair makes the checker
    compute that pair's mirror directly."""

    K = MODULES["sl21_a1"]

    def check(self, table):
        sc = self.K.sc
        mats = extend_matrices(self.K.matrices, sc.recipes)
        got = bracket_violations(
            sc.basis, sc.parity, table,
            lambda la, lb, pa, pb: sbracket(pa, pb, mats[la], mats[lb]), mats)
        ref = ref_extended(self.K.matrices, sc.recipes)
        expected = ref_violations(
            sc.basis, sc.parity, table,
            lambda la, lb, pa, pb: ref_sbracket(pa, pb, ref[la], ref[lb]), ref)
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
