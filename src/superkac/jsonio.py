"""Canonical JSON serialization of the exact domain objects.

Rationals are 'p/q' strings.  A polynomial is a map from monomial keys to
rational strings, the key being '1' for the constant term and otherwise the
nonzero-exponent factors joined by dots in declared parameter order, e.g.
{'b^1': '3/2', '1': '-1/4'}.  Matrices are {'rows': R, 'cols': C, 'params':
[...], 'entries': [[r, c, {poly}], ...]} with entries sorted by position.
All dumps sort keys, so identical inputs give byte-identical artifacts;
the writer gives the bytes of json.dumps(data, indent=2, sort_keys=True).
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from superkac.algebra import GenLabel, InputError
from superkac.exact import ParamPoly, PolyMatrix
from superkac.kacmod import KacModule

SCHEMA_MODULE = "superkac.module.v1"


def _monomial_key(params: tuple, exps: tuple) -> str:
    key = ".".join(f"{name}^{e}" for name, e in zip(params, exps) if e)
    return key or "1"


def poly_to_json(p: ParamPoly) -> dict:
    return {_monomial_key(p.params, exps): str(p.terms[exps])
            for exps in sorted(p.terms)}


def poly_from_json(data: dict, params) -> ParamPoly:
    params = tuple(params)
    terms = {}
    for key, coeff in data.items():
        exps = [0] * len(params)
        if key != "1":
            for factor in key.split("."):
                name, _, power = factor.partition("^")
                if name not in params:
                    raise InputError(f"unknown parameter {name!r} in {key!r}")
                exps[params.index(name)] = int(power) if power else 1
        terms[tuple(exps)] = Fraction(coeff)
    return ParamPoly(params, terms)


def _rational_str(x: int, den: int) -> str:
    """str(Fraction(x, den))."""
    g = gcd(x, den)
    return str(x // g) if den == g else f"{x // g}/{den // g}"


def matrix_to_json(m: PolyMatrix) -> dict:
    """The matrix read straight off its pencil terms: one monomial key per
    term, in sorted exponent order, and one 'p/q' string per distinct
    numerator of a term."""
    cells: dict = {}                  # row -> col -> {monomial key: 'p/q'}
    for exps in sorted(m.terms):
        den, rows = m.terms[exps]
        key = _monomial_key(m.params, exps)
        text: dict = {}
        for r, row in rows.items():
            out = cells.get(r)
            if out is None:
                out = cells[r] = {}
            for c, x in row.items():
                value = text.get(x)
                if value is None:
                    value = text[x] = _rational_str(x, den)
                poly = out.get(c)
                if poly is None:
                    out[c] = {key: value}
                else:
                    poly[key] = value
    return {
        "rows": m.rows,
        "cols": m.cols,
        "params": list(m.params),
        "entries": [[r, c, row[c]] for r, row in sorted(cells.items())
                    for c in sorted(row)],
    }


def matrix_from_json(data: dict) -> PolyMatrix:
    params = tuple(data["params"])
    entries = {(r, c): poly_from_json(poly, params)
               for r, c, poly in data["entries"]}
    return PolyMatrix(data["rows"], data["cols"], params, entries)


def _weight_json(hw: tuple, shift: tuple, memo: dict) -> list:
    """The coordinates hw[k] - shift[k] of a weight, each (k, shift[k])
    serialized once per memo."""
    out = []
    for k, s in enumerate(shift):
        data = memo.get((k, s))
        if data is None:
            data = memo[k, s] = poly_to_json(hw[k] - s)
        out.append(data)
    return out


def module_to_json(module, bindings: dict | None = None) -> dict:
    """Serialize a Kac module, a block replication/twist, or an H module.

    Optional bindings substitute rational values for parameters in every
    exported matrix (the symbolic module is built first either way).
    """
    from superkac.heisenberg import HModule
    from superkac.matryoshka import ReplicatedModule

    def render(mat: PolyMatrix) -> dict:
        if bindings:
            mat = mat.substitute(bindings)
        return matrix_to_json(mat)

    out = {
        "schema": SCHEMA_MODULE,
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

    # blocks: the block module a replication, twist or phi is built from
    if isinstance(module, KacModule):
        base, kind, blocks = module, "kac", None
    elif isinstance(module, ReplicatedModule):
        base, blocks = module.base, module
        kind = "twist" if module.nu is not None else "replication"
    elif isinstance(module, HModule):
        base, kind, blocks = module.twist.base, "heisenberg-phi", module.twist
    else:
        raise InputError(f"cannot serialize {type(module).__name__}")
    spec = base.sc.spec
    out.update({
        "kind": kind,
        "algebra": {"flavor": spec.flavor, "m": spec.m, "n": spec.n},
        "highest_weight": {"a": list(base.L.labels)},
        "params": list(module.params),
        "dim": module.dim,
        "generators": {str(lab): render(mat)
                       for lab, mat in sorted(module.matrices.items(),
                                              key=lambda kv: str(kv[0]))},
    })

    if blocks is None:
        memo: dict = {}
        out["basis"] = [{"odd_subset": list(subset), "even_index": l,
                         "layer": module.layers[pos],
                         "weight": _weight_json(module.hw, module.shifts[pos],
                                                memo)}
                        for pos, (subset, l) in enumerate(module.basis)]
        return out
    block = out["block_structure"] = {
        "copies": blocks.N,
        "base_dim": base.dim,
        "nu": [str(x) for x in blocks.nu] if blocks.nu else None,
    }
    if blocks is module:
        # a replication or twist: phi's couplings are the formal t
        block["couplings"] = [str(x) for x in module.couplings]
        block["superdiagonal"] = "first block superdiagonal only"
        out["basis"] = [{"copy": pos // base.dim,
                         "odd_subset": list(base.basis[pos % base.dim][0]),
                         "even_index": base.basis[pos % base.dim][1],
                         "layer": module.layers[pos]}
                        for pos in range(module.dim)]
    return out


def module_matrices_from_json(data: dict) -> dict:
    """Rebuild the generator matrices of an exported module."""
    if data.get("schema") != SCHEMA_MODULE:
        raise InputError("not a module artifact")
    return {GenLabel.parse(name): matrix_from_json(mat)
            for name, mat in data["generators"].items()}


def dumps_canonical(data: dict) -> str:
    """json.dumps(data, indent=2, sort_keys=True) plus a newline, written
    directly (the stdlib's indented encoder is its pure-Python one), for
    values built of str-keyed dicts, lists, tuples, str, int, bool and
    None.  Strings go through the stdlib's ASCII string encoder."""
    chunks: list = []
    _write_json(data, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


_LITERALS = {None: "null", True: "true", False: "false"}


def _write_json(value, newline: str, out) -> None:
    """Write value at the indentation that newline ends with; a str or int
    item of a container is written in its loop, in one chunk with the
    separator before it."""
    kind = type(value)
    if kind is dict:
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            head = sep + _quote(key) + ": "
            item = value[key]
            kind = type(item)
            if kind is str:
                out(head + _quote(item))
            elif kind is int:
                out(head + int.__repr__(item))
            else:
                out(head)
                _write_json(item, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is int:
                out(sep + int.__repr__(item))
            elif kind is str:
                out(sep + _quote(item))
            else:
                out(sep)
                _write_json(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif kind is str:
        out(_quote(value))
    elif kind is int:
        out(int.__repr__(value))
    elif value is None or kind is bool:
        out(_LITERALS[value])
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON "
                        "serializable")


def export_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_canonical(data))
