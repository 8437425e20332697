"""Canonical JSON serialization of the exact domain objects.

Rationals are 'p/q' strings.  A polynomial is a map from monomial keys to
rational strings, the key being '1' for the constant term and otherwise the
nonzero-exponent factors joined by dots in declared parameter order, e.g.
{'b^1': '3/2', '1': '-1/4'}.  Matrices are {'rows': R, 'cols': C, 'params':
[...], 'entries': [[r, c, {poly}], ...]} with entries sorted by position.
All dumps sort keys, so identical inputs give byte-identical artifacts.
"""

from __future__ import annotations

import json
from fractions import Fraction

from superkac.algebra import GenLabel, InputError
from superkac.exact import ParamPoly, PolyMatrix
from superkac.kacmod import KacModule
from superkac.report import VerificationReport

SCHEMA_MODULE = "superkac.module.v1"


def poly_to_json(p: ParamPoly) -> dict:
    out = {}
    for exps in sorted(p.terms):
        key = ".".join(f"{name}^{e}" for name, e in zip(p.params, exps) if e)
        out[key or "1"] = str(p.terms[exps])
    return out


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


def matrix_to_json(m: PolyMatrix) -> dict:
    entries = m.entries
    return {
        "rows": m.rows,
        "cols": m.cols,
        "params": list(m.params),
        "entries": [[r, c, poly_to_json(entries[(r, c)])]
                    for (r, c) in sorted(entries)],
    }


def matrix_from_json(data: dict) -> PolyMatrix:
    params = tuple(data["params"])
    entries = {(r, c): poly_from_json(poly, params)
               for r, c, poly in data["entries"]}
    return PolyMatrix(data["rows"], data["cols"], params, entries)


def weight_to_json(coord) -> list:
    return [poly_to_json(c) for c in coord]


def _algebra_header(spec) -> dict:
    return {"flavor": spec.flavor, "m": spec.m, "n": spec.n}


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

    if isinstance(module, KacModule):
        out.update({
            "kind": "kac",
            "algebra": _algebra_header(module.spec),
            "highest_weight": {"a": list(module.labels)},
            "params": list(module.params),
            "dim": module.dim,
            "basis": [{"odd_subset": list(subset), "even_index": l,
                       "layer": module.layers[pos],
                       "weight": weight_to_json(module.weights[pos])}
                      for pos, (subset, l) in enumerate(module.basis)],
            "generators": {str(lab): render(mat)
                           for lab, mat in sorted(module.matrices.items(),
                                                  key=lambda kv: str(kv[0]))},
        })
        return out

    if isinstance(module, ReplicatedModule):
        base = module.base
        out.update({
            "kind": "twist" if module.nu is not None else "replication",
            "algebra": _algebra_header(base.spec),
            "highest_weight": {"a": list(base.labels)},
            "params": list(module.params),
            "dim": module.dim,
            "block_structure": {
                "copies": module.N,
                "base_dim": base.dim,
                "couplings": [str(x) for x in module.couplings],
                "nu": [str(x) for x in module.nu] if module.nu else None,
                "superdiagonal": "first block superdiagonal only",
            },
            "basis": [{"copy": pos // base.dim,
                       "odd_subset": list(base.basis[pos % base.dim][0]),
                       "even_index": base.basis[pos % base.dim][1],
                       "layer": module.layers[pos]}
                      for pos in range(module.dim)],
            "generators": {str(lab): render(mat)
                           for lab, mat in sorted(module.matrices.items(),
                                                  key=lambda kv: str(kv[0]))},
        })
        return out

    if isinstance(module, HModule):
        rho = module.rho
        out.update({
            "kind": "heisenberg-phi",
            "algebra": _algebra_header(rho.base.spec),
            "highest_weight": {"a": list(rho.base.labels)},
            "params": list(module.params),
            "dim": module.dim,
            "block_structure": {
                "copies": rho.spec.n,
                "base_dim": rho.base.dim,
                "nu": [str(x) for x in rho.spec.nu],
            },
            "generators": {str(lab): render(mat)
                           for lab, mat in sorted(module.matrices.items(),
                                                  key=lambda kv: str(kv[0]))},
        })
        return out

    raise InputError(f"cannot serialize {type(module).__name__}")


def module_matrices_from_json(data: dict) -> dict:
    """Rebuild the generator matrices of an exported module."""
    if data.get("schema") != SCHEMA_MODULE:
        raise InputError("not a module artifact")
    return {GenLabel.parse(name): matrix_from_json(mat)
            for name, mat in data["generators"].items()}


def report_to_json(report: VerificationReport) -> dict:
    return report.to_jsonable()


def dumps_canonical(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def export_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_canonical(data))
