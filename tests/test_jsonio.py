"""The JSON writer and the pencil reader against their stdlib and
ParamPoly oracles."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superkac import heisenberg as hsb
from superkac import jsonio
from superkac import matryoshka as mat
from superkac.algebra import (SuperAlgebraSpec, build_fundamental_rep,
                              check_super_relations, structure_constants)
from superkac.evenrep import build_even_irrep
from superkac.exact import ParamPoly, PolyMatrix
from superkac.kacmod import induce
from block_oracle import part_over


def stdlib_dumps(data) -> str:
    """The oracle of jsonio.dumps_canonical."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def reference_matrix_to_json(m: PolyMatrix) -> dict:
    """jsonio.matrix_to_json as it was before it read the pencil terms: one
    ParamPoly per entry, serialized by poly_to_json."""
    entries = m.entries
    return {
        "rows": m.rows,
        "cols": m.cols,
        "params": list(m.params),
        "entries": [[r, c, jsonio.poly_to_json(entries[(r, c)])]
                    for (r, c) in sorted(entries)],
    }


def ordered(data):
    """data with every dict spelled out as its list of items, so that two
    values compare equal only with the same key order."""
    if isinstance(data, dict):
        return [(key, ordered(value)) for key, value in data.items()]
    if isinstance(data, list):
        return [ordered(value) for value in data]
    return data


def build_kac(flavor, m, n, a):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    sc = structure_constants(rep)
    L = build_even_irrep(a, sc)
    return induce(L, sc)


@pytest.fixture(scope="module")
def artifacts() -> dict:
    """Every artifact kind and a report, by name."""
    K = build_kac("sl", 3, 1, (1, 0))
    G = build_kac("gl", 2, 1, (1,))
    phi = hsb.phi_map(mat.twist(G, mat.TwistSpec(2, (2, -3))),
                      hsb.build_heisenberg(G.sc))
    return {
        "kac symbolic": jsonio.module_to_json(K),
        "kac bound": jsonio.module_to_json(G, {"b": Fraction(5, 7),
                                               "c": Fraction(-3, 11)}),
        "replication": jsonio.module_to_json(mat.replicate(
            K, mat.ReplicationSpec(3, (2, Fraction(-3, 5))))),
        "twist": jsonio.module_to_json(mat.twist(
            G, mat.TwistSpec(2, (0, 1)))),
        "heisenberg-phi": jsonio.module_to_json(phi),
        "report": check_super_relations(
            K.matrices, K.sc, "Kac module relations").to_jsonable(),
    }


@pytest.mark.parametrize("name", ["kac symbolic", "kac bound", "replication",
                                  "twist", "heisenberg-phi", "report"])
def test_dumps_canonical_matches_stdlib_on_artifacts(artifacts, name):
    data = artifacts[name]
    assert jsonio.dumps_canonical(data) == stdlib_dumps(data)


json_keys = st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=25)


@settings(deadline=None, max_examples=300)
@given(json_values)
@example({})
@example([])
@example({"": [[], {}], "b": [True, None, False, -0],
          "a\"\\\n\t\x00\x1f": "é漢\U0001f600"})
@example(("tuple", [1, (2,)]))
def test_dumps_canonical_matches_stdlib(data):
    assert jsonio.dumps_canonical(data) == stdlib_dumps(data)


def test_dumps_canonical_rejects_what_it_does_not_write():
    with pytest.raises(TypeError):
        jsonio.dumps_canonical({"x": 0.5})
    with pytest.raises(TypeError):
        jsonio.dumps_canonical({1: "int key"})


PARAMS = ("b", "c")
coefficients = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                Fraction(-6), Fraction(1, 2), Fraction(-3, 4),
                                Fraction(2, 3), Fraction(5, 6),
                                Fraction(-7, 12)])
monomials = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)])
polys = st.dictionaries(monomials, coefficients, max_size=4).map(
    lambda terms: ParamPoly(PARAMS, terms))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cells = st.tuples(st.integers(0, max(rows - 1, 0)),
                      st.integers(0, max(cols - 1, 0)))
    entries = draw(st.dictionaries(cells, polys, max_size=8)) \
        if rows and cols else {}
    params = draw(st.sampled_from([PARAMS, ("b",), ()]))
    m = PolyMatrix(rows, cols, PARAMS, entries)
    return part_over(m, params, {name: 0 for name in PARAMS
                                 if name not in params})


def poly(terms):
    return ParamPoly(PARAMS, terms)


@settings(deadline=None, max_examples=300)
@given(matrices())
@example(PolyMatrix(2, 3, PARAMS, {
    # one term over 12 whose numerators are not in lowest terms alone
    (0, 0): poly({(0, 0): Fraction(1, 2), (1, 0): Fraction(-3, 4),
                  (1, 1): 2}),
    (0, 2): poly({(0, 0): Fraction(-2, 3), (1, 0): Fraction(5, 6)}),
    (1, 1): poly({(0, 0): Fraction(-1, 12), (2, 0): -6})}))
@example(PolyMatrix(3, 2, PARAMS))
def test_matrix_to_json_matches_the_param_poly_reference(m):
    got = jsonio.matrix_to_json(m)
    want = reference_matrix_to_json(m)
    assert ordered(got) == ordered(want)
    assert stdlib_dumps(got) == stdlib_dumps(want)
    assert jsonio.matrix_from_json(got) == m
