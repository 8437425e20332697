"""The streaming JSON writer against the stdlib encoder and the JSON tree
it replaced, and the pencil reader against its ParamPoly oracle."""

import json
import os
import stat
import tempfile
import tracemalloc
from fractions import Fraction
from functools import partial

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
from superkac.heisenberg import HModule
from superkac.kacmod import KacModule, induce
from block_oracle import part_over


def stdlib_dumps(data) -> str:
    """The oracle of jsonio.export_json: the bytes it writes for data."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def written(data) -> str:
    """What jsonio.export_json writes for data, read back."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "data.json")
        jsonio.export_json(data, path)
        with open(path, encoding="utf-8") as handle:
            return handle.read()


def reference_matrix_to_json(m: PolyMatrix) -> dict:
    """A matrix as a JSON tree: one ParamPoly per entry, serialized by
    poly_to_json."""
    entries = m.entries
    return {
        "rows": m.rows,
        "cols": m.cols,
        "params": list(m.params),
        "entries": [[r, c, jsonio.poly_to_json(entries[(r, c)])]
                    for (r, c) in sorted(entries)],
    }


def reference_module_to_json(module, bindings: dict | None = None) -> dict:
    """A module artifact as a JSON tree, with one list and one dict per
    matrix entry and basis vector: the tree jsonio.module_to_json built
    before the writer rendered the artifact as text."""
    def render(m: PolyMatrix) -> dict:
        return reference_matrix_to_json(m.substitute(bindings) if bindings
                                        else m)

    out = {
        "schema": jsonio.SCHEMA_MODULE,
        "conventions": {
            "wedge_sign": "v_j insertion carries (-1)^(number of smaller "
                          "indices already present)",
            "odd_enumeration": "beta_1 is the simple odd root eps_m - delta_1; "
                               "index increases with descending eps row, then "
                               "ascending delta column",
            "hypercharge": "[y, u] = u exactly; supertraceless for m != n",
        },
    }
    if bindings:
        out["bindings"] = {k: str(v) for k, v in sorted(bindings.items())}
    if isinstance(module, KacModule):
        base, kind, blocks = module, "kac", None
    elif isinstance(module, HModule):
        base, kind, blocks = module.twist.base, "heisenberg-phi", module.twist
    else:
        base, blocks = module.base, module
        kind = "twist" if module.nu is not None else "replication"
    spec = base.sc.spec
    out.update({
        "kind": kind,
        "algebra": {"flavor": spec.flavor, "m": spec.m, "n": spec.n},
        "highest_weight": {"a": list(base.L.labels)},
        "params": list(module.params),
        "dim": module.dim,
        "generators": {str(lab): render(m)
                       for lab, m in module.matrices.items()},
    })
    if blocks is None:
        out["basis"] = [{"odd_subset": list(subset), "even_index": l,
                         "layer": module.layers[pos],
                         "weight": [jsonio.poly_to_json(module.hw[k] - s)
                                    for k, s in enumerate(module.shifts[pos])]}
                        for pos, (subset, l) in enumerate(module.basis)]
        return out
    block = out["block_structure"] = {
        "copies": blocks.N,
        "base_dim": base.dim,
        "nu": [str(x) for x in blocks.nu] if blocks.nu else None,
    }
    if blocks is module:
        block["couplings"] = [str(x) for x in module.couplings]
        block["superdiagonal"] = "first block superdiagonal only"
        out["basis"] = [{"copy": pos // base.dim,
                         "odd_subset": list(base.basis[pos % base.dim][0]),
                         "even_index": base.basis[pos % base.dim][1],
                         "layer": module.layers[pos]}
                        for pos in range(module.dim)]
    return out


def build_kac(flavor, m, n, a):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    sc = structure_constants(rep)
    L = build_even_irrep(a, sc)
    return induce(L, sc)


def with_edge_matrices(K: KacModule) -> KacModule:
    """K with its first generator acting by zero, so that its matrix has no
    entries, and an entry 1 - b/2 + 3c on the second, which has three
    monomials."""
    first, second = sorted(K.matrices)[:2]
    b = ParamPoly.var(K.params, "b")
    c = ParamPoly.var(K.params, "c")
    extra = PolyMatrix(K.dim, K.dim, K.params, {
        (0, K.dim - 1): b * Fraction(-1, 2) + c * 3 + 1})
    return K.replace(matrices={**K.matrices,
                               first: PolyMatrix(K.dim, K.dim, K.params),
                               second: K.matrices[second] + extra})


@pytest.fixture(scope="module")
def artifacts() -> dict:
    """Every artifact kind, as (module, bindings), by name."""
    K = build_kac("sl", 3, 1, (1, 0))
    G = build_kac("gl", 2, 1, (1,))
    phi = hsb.phi_map(mat.twist(G, mat.TwistSpec(2, (2, -3))),
                      hsb.build_heisenberg(G.sc))
    return {
        "kac symbolic": (K, None),
        "kac bound": (G, {"b": Fraction(5, 7), "c": Fraction(-3, 11)}),
        "kac edge matrices": (with_edge_matrices(G), None),
        "replication": (mat.replicate(
            K, mat.ReplicationSpec(3, (2, Fraction(-3, 5)))), None),
        "twist": (mat.twist(G, mat.TwistSpec(2, (0, 1))), None),
        "heisenberg-phi": (phi, None),
    }


ARTIFACT_KINDS = ["kac symbolic", "kac bound", "kac edge matrices",
                  "replication", "twist", "heisenberg-phi"]


@pytest.mark.parametrize("name", ARTIFACT_KINDS)
def test_export_matches_the_stdlib_dump_of_the_tree(artifacts, name):
    module, bindings = artifacts[name]
    assert written(jsonio.module_to_json(module, bindings)) == \
        stdlib_dumps(reference_module_to_json(module, bindings))


@pytest.mark.parametrize("name", ["replication", "twist"])
def test_block_export_keeps_no_block_matrix(artifacts, name):
    """A block module's export builds each block matrix as its part is
    written, from the deformation, and leaves the module's own matrices
    unbuilt; the bytes are those of the tree of all blocks."""
    module, _ = artifacts[name]
    fresh = module.replace()
    text = written(jsonio.module_to_json(fresh))
    assert "matrices" not in vars(fresh)
    assert text == stdlib_dumps(reference_module_to_json(module))


def test_edge_matrices_are_exported(artifacts):
    module, _ = artifacts["kac edge matrices"]
    generators = json.loads(written(jsonio.module_to_json(module)))[
        "generators"]
    first, second = sorted(module.matrices)[:2]
    assert generators[str(first)]["entries"] == []
    assert [0, module.dim - 1, {"1": "1", "b^1": "-1/2", "c^1": "3"}] in \
        generators[str(second)]["entries"]


def test_report_matches_stdlib():
    K = build_kac("sl", 2, 1, (1,))
    data = check_super_relations(K.matrices, K.sc,
                                 "Kac module relations").to_jsonable()
    assert written(data) == stdlib_dumps(data)


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
def test_writer_matches_stdlib(data):
    assert written(data) == stdlib_dumps(data)


def test_writer_rejects_what_it_does_not_write(tmp_path):
    for data in ({"x": 0.5}, {1: "int key"}):
        with pytest.raises(TypeError):
            jsonio.export_json(data, str(tmp_path / "data.json"))
    assert list(tmp_path.iterdir()) == []


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
def test_matrix_matches_the_param_poly_reference(m):
    text = written(partial(jsonio._write_matrix, m, None))
    assert text == stdlib_dumps(reference_matrix_to_json(m))
    assert jsonio.matrix_from_json(json.loads(text)) == m


@settings(deadline=None, max_examples=100)
@given(matrices(), st.sampled_from([Fraction(0), Fraction(-2, 3),
                                    Fraction(5)]))
def test_bound_matrix_matches_the_param_poly_reference(m, value):
    bindings = {"b": value} if "b" in m.params else {}
    assert written(partial(jsonio._write_matrix, m, bindings)) == \
        stdlib_dumps(reference_matrix_to_json(m.substitute(bindings)))


# -- no tree, and no truncated file --------------------------------------------

@pytest.fixture(scope="module")
def sl41_111():
    """sl(4|1) a=(1,1,1), dim K 1024, and its N=3 replication, with every
    base matrix, derivative and basis field the export reads already
    built; the replication's export builds its block matrices itself."""
    K = build_kac("sl", 4, 1, (1, 1, 1))
    R = mat.replicate(K, mat.ReplicationSpec(3, (Fraction(1), Fraction(2))))
    R.deformation.B, R.layers
    return {"kac": K, "replication": R}


@pytest.mark.parametrize("name", ["kac", "replication"])
def test_export_holds_no_tree(sl41_111, tmp_path, name):
    """The memory an export allocates stays below the size of the file it
    writes: the artifact is never held whole, as text or as a tree.  The
    JSON tree of the Kac module took 8.7 times its file size."""
    path = tmp_path / "module.json"
    tracemalloc.start()
    try:
        jsonio.export_json(jsonio.module_to_json(sl41_111[name]), str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


class Exhausted(MemoryError):
    pass


@pytest.mark.parametrize("linked", [False, True])
def test_failed_write_leaves_the_old_file(tmp_path, monkeypatch, linked):
    path = tmp_path / "module.json"
    path.write_text("OLD CONTENT")
    if linked:
        os.link(path, tmp_path / "other.json")
    calls = []

    def failing(m, bindings, newline, out):
        calls.append(m)
        out("partial text")
        raise Exhausted

    monkeypatch.setattr(jsonio, "_write_matrix", failing)
    with pytest.raises(Exhausted):
        jsonio.export_json(jsonio.module_to_json(build_kac("sl", 2, 1, (0,))),
                           str(path))
    assert calls
    assert path.read_text() == "OLD CONTENT"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["module.json", "other.json"][:1 + linked]


def test_mode_is_that_of_a_plain_open(tmp_path):
    fresh, plain = tmp_path / "fresh.json", tmp_path / "plain.json"
    jsonio.export_json({"a": 1}, str(fresh))
    with open(plain, "w", encoding="utf-8"):
        pass
    assert fresh.stat().st_mode == plain.stat().st_mode
    os.chmod(fresh, 0o640)
    jsonio.export_json({"a": 2}, str(fresh))
    assert (fresh.stat().st_mode & 0o777, fresh.read_text()) == \
        (0o640, stdlib_dumps({"a": 2}))


def test_a_symlinked_path_writes_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("OLD CONTENT")
    link.symlink_to(target)
    jsonio.export_json({"a": 1}, str(link))
    assert link.is_symlink()
    assert target.read_text() == stdlib_dumps({"a": 1})


def test_a_fifo_is_written_through(tmp_path):
    """A path that is not a regular file, such as a FIFO, /dev/null or
    /dev/stdout, is written through and stays what it was."""
    fifo, link = tmp_path / "fifo", tmp_path / "stdout"
    os.mkfifo(fifo)
    link.symlink_to(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        for path in (fifo, link):
            jsonio.export_json({"a": 1}, str(path))
            assert os.read(reader, 1 << 16).decode() == stdlib_dumps({"a": 1})
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "stdout"]


def test_a_linked_file_is_written_into(tmp_path):
    """The new text is copied into a file that has other links, so each
    of its names reads the new bytes."""
    path, other = tmp_path / "module.json", tmp_path / "other.json"
    path.write_text("OLD CONTENT")
    os.link(path, other)
    jsonio.export_json({"a": 1}, str(path))
    assert os.path.samefile(path, other)
    assert other.read_text() == stdlib_dumps({"a": 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["module.json", "other.json"]


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                    reason="only root gives a file to another user")
def test_another_users_file_keeps_its_owner(tmp_path):
    path = tmp_path / "module.json"
    path.write_text("OLD CONTENT")
    os.chown(path, 12345, 12345)
    jsonio.export_json({"a": 1}, str(path))
    assert (path.stat().st_uid, path.stat().st_gid) == (12345, 12345)
    assert path.read_text() == stdlib_dumps({"a": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["module.json"]
