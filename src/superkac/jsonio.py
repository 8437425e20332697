"""Canonical JSON serialization of the exact domain objects.

Rationals are 'p/q' strings.  A polynomial is a map from monomial keys to
rational strings, the key being '1' for the constant term and otherwise the
nonzero-exponent factors joined by dots in declared parameter order, e.g.
{'b^1': '3/2', '1': '-1/4'}.  Matrices are {'rows': R, 'cols': C, 'params':
[...], 'entries': [[r, c, {poly}], ...]} with entries sorted by position.
Every file has the bytes of json.dumps(data, indent=2, sort_keys=True) plus
a newline, so identical inputs give byte-identical artifacts.

No JSON value is built per matrix entry or basis vector.
``module_to_json`` returns an artifact's header fields, with each generator
matrix and the basis left as a deferred part.  A Kac module's generator is
assembled from its factors, and a replication's or twist's block matrix
built from its deformation, only as its part is written, and neither is
kept, so one is held at a time.  ``export_json`` renders each
part as text, straight from the pencil terms and the module's fields, as it
streams the file.  It writes a temporary file beside the target, which
replaces the target only once complete, so a failed job leaves an existing
file as it was; a device or FIFO, such as /dev/null, is written through.
The tests keep the per-entry tree builder and the stdlib encoder as the
oracles of this writer (tests/test_jsonio.py).
"""

from __future__ import annotations

import os
import shutil
import stat
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from superkac.algebra import GenLabel, InputError
from superkac.exact import ParamPoly, PolyMatrix
from superkac.kacmod import KacModule, unkept

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


def matrix_from_json(data: dict) -> PolyMatrix:
    params = tuple(data["params"])
    entries = {(r, c): poly_from_json(poly, params)
               for r, c, poly in data["entries"]}
    return PolyMatrix(data["rows"], data["cols"], params, entries)


# -- rendering ----------------------------------------------------------------
# Each renderer writes its part at the indentation that ``newline`` ends
# with, through ``out``, as _write_json would write its JSON tree.

def _write_matrix(m: PolyMatrix, bindings: dict | None, newline: str,
                  out) -> None:
    """The matrix, with bindings substituted if given, in one pass over its
    sorted rows.  Each term's monomial key and each distinct numerator's
    'p/q' string are rendered once, and the terms are walked in the order
    of their keys, so each entry's polynomial has its keys sorted."""
    if bindings:
        m = m.substitute(bindings)
    inner = newline + "  "
    item = inner + "  "
    field = item + "  "
    # per term: its rows, the head of its polynomial item, its denominator
    # and the text of the item per numerator
    terms = [(rows, field + "  " + _quote(key) + ": ", den, {})
             for key, den, rows in sorted(
                 (_monomial_key(m.params, exps), den, rows)
                 for exps, (den, rows) in m.terms.items())]
    middle = "," + field
    opening, closing = "," + field + "{", field + "}" + item + "]"
    entries = []
    for r in sorted(set().union(*(rows for rows, _, _, _ in terms))):
        cells: dict = {}              # col -> text of the entry's terms
        for rows, head, den, text in terms:
            for c, x in rows.get(r, {}).items():
                value = text.get(x)
                if value is None:
                    value = text[x] = head + _quote(_rational_str(x, den))
                before = cells.get(c)
                cells[c] = value if before is None else before + "," + value
        start = f"[{field}{r}{middle}"
        for c in sorted(cells):
            entries.append(f"{start}{c}{opening}{cells[c]}{closing}")
    out("{" + inner + '"cols": ' + str(m.cols) + "," + inner + '"entries": ')
    out(_items_text(entries, inner))
    out("," + inner + '"params": ')
    _write_json(list(m.params), inner, out)
    out("," + inner + '"rows": ' + str(m.rows) + newline + "}")


def _write_generator(matrices, label: GenLabel, bindings: dict | None,
                     newline: str, out) -> None:
    """One matrix of a Kac or H module, read by ``kacmod.unkept``: a Kac
    module label not yet assembled is assembled for this write and dropped
    once written."""
    _write_matrix(unkept(matrices, label), bindings, newline, out)


def _write_block_matrix(module, label: GenLabel, bindings: dict | None,
                        newline: str, out) -> None:
    """The block matrix I (x) A + C (x) B of one label of a replication or
    twist, with A read by ``kacmod.unkept`` and B = D(A), built from its
    deformation and dropped once written."""
    D = module.deformation
    a = unkept(D.A, label)
    _write_matrix(module.block_matrix(a, D.along(a)), bindings, newline, out)


def _items_text(items: list, newline: str) -> str:
    """A list whose items are already rendered one level below newline."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _text(value, newline: str) -> str:
    """value as _write_json writes it, in one string."""
    chunks: list = []
    _write_json(value, newline, chunks.append)
    return "".join(chunks)


def _write_basis(module, base: KacModule, newline: str, out) -> None:
    """The basis of a Kac module (odd subset, even index, layer, weight), or
    of a block module of base (copy, odd subset, even index, layer).  Each
    distinct odd subset, weight coordinate and weight is rendered once."""
    item = newline + "  "
    field = item + "  "
    subsets: dict = {}
    coordinates: dict = {}            # (k, shift[k]) -> text
    weights: dict = {}                # shift -> text
    vectors = []
    dim = base.dim
    for pos, layer in enumerate(module.layers):
        copy, index = divmod(pos, dim)
        subset, even = base.basis[index]
        subset_text = subsets.get(subset)
        if subset_text is None:
            subset_text = subsets[subset] = _items_text(
                [str(i) for i in subset], field)
        if module is not base:
            vectors.append(f'{{{field}"copy": {copy},{field}"even_index": '
                           f'{even},{field}"layer": {layer},{field}'
                           f'"odd_subset": {subset_text}{item}}}')
            continue
        shift = module.shifts[pos]
        weight = weights.get(shift)
        if weight is None:
            coords = []
            for k, s in enumerate(shift):
                coord = coordinates.get((k, s))
                if coord is None:
                    coord = coordinates[k, s] = _text(
                        poly_to_json(module.hw[k] - s), field + "  ")
                coords.append(coord)
            weight = weights[shift] = _items_text(coords, field)
        vectors.append(f'{{{field}"even_index": {even},{field}"layer": '
                       f'{layer},{field}"odd_subset": {subset_text},{field}'
                       f'"weight": {weight}{item}}}')
    out(_items_text(vectors, newline))


def module_to_json(module, bindings: dict | None = None) -> dict:
    """The artifact of a Kac module, a block replication/twist, or an H
    module: its header fields, with each generator matrix and the basis a
    part that ``export_json`` renders as it writes it.

    Optional bindings substitute rational values for parameters in every
    exported matrix (the symbolic module is built first either way).
    """
    from superkac.heisenberg import HModule
    from superkac.matryoshka import ReplicatedModule

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
    if blocks is module:
        generators = {str(lab): partial(_write_block_matrix, module, lab,
                                        bindings)
                      for lab in base.matrices}
    else:
        generators = {str(lab): partial(_write_generator, module.matrices,
                                        lab, bindings)
                      for lab in module.matrices}
    spec = base.sc.spec
    out.update({
        "kind": kind,
        "algebra": {"flavor": spec.flavor, "m": spec.m, "n": spec.n},
        "highest_weight": {"a": list(base.L.labels)},
        "params": list(module.params),
        "dim": module.dim,
        "generators": generators,
    })
    if blocks is None:
        out["basis"] = partial(_write_basis, module, base)
        return out
    block = out["block_structure"] = {
        "copies": blocks.N,
        "base_dim": base.dim,
        "nu": [str(x) for x in blocks.nu] if blocks.nu else None,
    }
    if blocks is module:
        # a replication or twist: phi's couplings are the formal t
        block["couplings"] = [
            str(module.coupling.entry(t, t + 1).constant_value())
            for t in range(module.N - 1)]
        block["superdiagonal"] = "first block superdiagonal only"
        out["basis"] = partial(_write_basis, module, base)
    return out


def module_matrices_from_json(data: dict) -> dict:
    """Rebuild the generator matrices of an exported module."""
    if data.get("schema") != SCHEMA_MODULE:
        raise InputError("not a module artifact")
    return {GenLabel.parse(name): matrix_from_json(mat)
            for name, mat in data["generators"].items()}


# -- writing ------------------------------------------------------------------

_LITERALS = {None: "null", True: "true", False: "false"}


def _write_json(value, newline: str, out) -> None:
    """Write value at the indentation that newline ends with, as
    json.dumps(value, indent=2, sort_keys=True) would, for values built of
    str-keyed dicts, lists, tuples, str, int, bool, None and the deferred
    parts of ``module_to_json``, which render themselves.  A str or int item
    of a container is written in its loop, in one chunk with the separator
    before it; strings go through the stdlib's ASCII string encoder."""
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
    elif kind is partial:
        value(newline, out)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON "
                        "serializable")


def existing(path: str) -> os.stat_result | None:
    """The status of the file that path names, following symlinks, or None
    if there is none."""
    try:
        return os.stat(path)
    except OSError:
        return None


def written_path(path: str) -> str:
    """The file that ``export_json`` writes for path: path itself, or the
    file that a symlink at path points to, as open(path, 'w') would."""
    return os.path.realpath(path) if os.path.islink(path) else path


def _create_beside(target: str) -> tuple:
    """(descriptor, name) of a new file in target's directory, created as
    open(target, 'w') would create target: with mode 0o666 less the
    umask."""
    directory, name = os.path.split(target)
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                           0o666), temp
        except FileExistsError:
            pass


def _write_document(data, handle) -> None:
    _write_json(data, "\n", handle.write)
    handle.write("\n")


def export_json(data, path: str) -> None:
    """Write data, a report or a ``module_to_json`` artifact, to path.

    The text goes to a new file beside ``written_path(path)``, which takes
    its place only once complete: a failure, such as running out of memory
    while rendering, leaves an existing file as it was and removes the new
    one.  The new file replaces an existing one that has one link and the
    new file's owner, with that file's mode; into any other existing file
    it is copied, which keeps its links, owner and mode, as open(path, 'w')
    would.  A path that is not a regular file, such as /dev/null, a FIFO or
    /dev/stdout, is written through, as it cannot be replaced."""
    old = existing(path)
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "w", encoding="utf-8") as handle:
            _write_document(data, handle)
        return
    target = written_path(path)
    fd, temp = _create_beside(target)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            _write_document(data, handle)
            new = os.fstat(fd)
            replace = old is None or (old.st_nlink == 1 and (
                old.st_uid, old.st_gid) == (new.st_uid, new.st_gid))
            if old is not None and replace:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
        if replace:
            os.replace(temp, target)
            return
        with open(temp, "rb") as text, open(target, "wb") as handle:
            shutil.copyfileobj(text, handle)
    except BaseException:
        os.unlink(temp)
        raise
    os.unlink(temp)
