"""The integer set-up of a job against the Fraction one it replaced.

For every sl(m|n) with m != n and every gl(m|n), 1 <= m, n <= 5: the root
datum, the fundamental matrices, the structure constants and the
highest-weight readers are compared with the references kept in
``setup_oracles`` and with the all-pairs loop of ``test_algebra``.
"""

import itertools
from fractions import Fraction

import pytest

from superkac.algebra import (FundamentalRep, InputError, RootDatum,
                              SuperAlgebraSpec, _full_basis,
                              build_fundamental_rep, build_root_datum,
                              extend_matrices, structure_constants,
                              typicality_factors, weight_from_labels)
from superkac.evenrep import labels_to_hypercharge
from setup_oracles import (reference_fundamental_matrices,
                           reference_labels_to_hypercharge,
                           reference_root_datum, reference_typicality_factors,
                           reference_weight_from_labels)
from test_algebra import loop_structure_constants, table_items

SPECS = [(flavor, m, n)
         for flavor, m, n in itertools.product(("sl", "gl"), range(1, 6),
                                               range(1, 6))
         if not (flavor == "sl" and m == n)]
SOLVABLE = [spec for spec in SPECS if spec[1] != spec[2]]

ROOT_FIELDS = ("simple_even_roots", "even_positive_roots",
               "odd_positive_roots")
HALF_FIELDS = ("rho",)


def spec_of(flavor, m, n) -> SuperAlgebraSpec:
    return SuperAlgebraSpec(m, n, flavor)


def as_fractions(value):
    """Every number in nested tuples as a Fraction."""
    if isinstance(value, tuple):
        return tuple(as_fractions(x) for x in value)
    if isinstance(value, int):
        return Fraction(value)
    return value


def reference_matrices(spec) -> dict:
    """The reference fundamental matrices of the generator surface, with
    each nonsimple root vector the recipe product of its operands."""
    recipes = _full_basis(spec, build_root_datum(spec))[1]
    return extend_matrices(reference_fundamental_matrices(spec), recipes)


def label_vectors(spec) -> list:
    rank = spec.rank
    return [(0,) * rank, (1,) * rank,
            tuple((3 * i + 2) % 4 for i in range(rank))]


def coefficient_types(polys) -> set:
    return {type(q) for poly in polys for q in poly.terms.values()}


@pytest.mark.parametrize("flavor, m, n", SPECS)
def test_root_datum_matches_fraction_reference(flavor, m, n):
    spec = spec_of(flavor, m, n)
    datum = build_root_datum(spec)
    want = reference_root_datum(spec)
    assert list(RootDatum._fields) == list(want)
    for field in RootDatum._fields:
        assert as_fractions(getattr(datum, field)) == want[field], field
    for field in ROOT_FIELDS:
        assert {type(x) for root in getattr(datum, field) for x in root} \
            <= {int}
    for field in HALF_FIELDS:
        assert {type(x) for x in getattr(datum, field)} == {Fraction}


@pytest.mark.parametrize("flavor, m, n", SPECS)
def test_fundamental_matrices_match_fraction_reference(flavor, m, n):
    spec = spec_of(flavor, m, n)
    rep = build_fundamental_rep(spec)
    want = reference_matrices(spec)
    assert list(rep.matrices) == list(want)
    for label, mat in rep.matrices.items():
        ref = want[label]
        assert (mat.rows, mat.cols, mat.params) == \
            (ref.rows, ref.cols, ref.params), label
        assert mat.terms == ref.terms, label


@pytest.mark.parametrize("flavor, m, n", SOLVABLE)
def test_structure_constants_match_references(flavor, m, n):
    spec = spec_of(flavor, m, n)
    rep = build_fundamental_rep(spec)
    sc = structure_constants(rep)
    reference_rep = FundamentalRep(
        spec=spec, datum=rep.datum, matrices=reference_matrices(spec))
    from_reference = structure_constants(reference_rep)
    loop = loop_structure_constants(rep)
    # the matrices the table is read off: each nonsimple root vector is a
    # matrix unit equal to the product of its recipe
    assert rep.matrices == reference_rep.matrices
    for want in (from_reference, loop):
        assert table_items(sc.table) == table_items(want.table)
        assert sc.k == want.k
        assert (sc.basis, sc.recipes) == (want.basis, want.recipes)
        assert sc.generators == want.generators
    assert type(sc.k) is Fraction


@pytest.mark.parametrize("n", range(1, 6))
def test_gl_nn_still_raises(n):
    rep = build_fundamental_rep(spec_of("gl", n, n))
    with pytest.raises(InputError, match="vanishing hypercharge"):
        structure_constants(rep)
    with pytest.raises(InputError, match="vanishing hypercharge"):
        loop_structure_constants(rep)
    for read in (weight_from_labels, typicality_factors):
        with pytest.raises(InputError, match="gl\\(n\\|n\\)"):
            read(rep.datum, (0,) * rep.spec.rank)


@pytest.mark.parametrize("flavor, m, n", SOLVABLE)
def test_weight_readers_match_fraction_reference(flavor, m, n):
    spec = spec_of(flavor, m, n)
    rep = build_fundamental_rep(spec)
    sc = structure_constants(rep)
    for a in label_vectors(spec):
        coords = weight_from_labels(rep.datum, a)
        assert coords == reference_weight_from_labels(spec, a)
        factors = typicality_factors(rep.datum, a)
        assert factors == reference_typicality_factors(spec, a)
        y0 = labels_to_hypercharge(sc, a)
        assert y0 == reference_labels_to_hypercharge(sc, a)
        assert coefficient_types([*coords, *factors, y0]) <= {Fraction}
