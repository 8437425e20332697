"""Finite-dimensional irreducible modules of the even subalgebra
sl(m) + sl(n) + h', built on Gelfand-Tsetlin patterns.

L is the tensor product of the sl(m) irrep with labels a[:m-1] and the
sl(n) irrep with labels a[m-1:].  Each factor has the Gelfand-Tsetlin
patterns of its highest weight as a basis, and e_i, f_i act on them by
closed-form rational coefficients (Molev, "Gelfand-Tsetlin bases for
classical Lie algebras", math/0211289, Thm 2.3), so no Gram matrix is
formed and nothing is solved.  Each e_i and f_i is one integer term over
the lcm of its denominators, and h_i is read off the content.

The basis is ordered by (level, content, pattern), so the highest weight
vector is position 0.  The highest weight is stored once, and each basis
vector keeps only its int shift below it, its content times the simple
even roots.  The hypercharge and (for gl) the central charge act on
everything by scalars, kept symbolic in b and c.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from superkac.algebra import (GenLabel, InternalConsistencyError,
                              RootDatum, StructureConstants,
                              module_params, validate_even_labels,
                              weight_from_labels)
from superkac.exact import ParamPoly, PolyMatrix
from superkac.record import Record


class EvenModule(Record):
    """An irreducible module of the even subalgebra with scalar h' action."""

    labels: tuple                     # even Dynkin labels a_1..a_r
    params: tuple                     # ("b",) or ("b", "c")
    dim: int
    contents: tuple                   # root-coordinate content per vector
    hw: tuple                         # epsilon/delta coordinates of the
                                      # highest weight (ParamPoly)
    shifts: tuple                     # per vector, hw minus its weight (ints)
    matrices: dict                    # GenLabel h/e/f -> PolyMatrix
    y_scalar: ParamPoly               # hypercharge eigenvalue y0(b)
    z0_scalar: ParamPoly | None       # central charge c, gl only


def labels_to_hypercharge(sc: StructureConstants,
                          a: Sequence[int]) -> ParamPoly:
    """Hypercharge eigenvalue y0 on the highest weight, linear in b.

    Inverts {u_1, v_1} = d^a_11 h_a + k y on the highest weight state, where
    the h eigenvalues are the even Dynkin labels.
    """
    spec = sc.spec
    validate_even_labels(spec, a)
    params = module_params(spec)
    h_part = 0
    for label, coeff in sc.bracket(GenLabel("u", 1),
                                   GenLabel("v", 1)).items():
        if label.kind == "h":
            h_part += coeff * a[label.index - 1]
        elif label.kind == "z0" and coeff != 0:
            raise InternalConsistencyError("{u_1,v_1} acquired a z0 part")
    # (b - h_part) / k
    inv = 1 / sc.k
    terms = {(0,) * len(params): -h_part * inv} if h_part else {}
    terms[next(iter(ParamPoly.var(params, "b").terms))] = inv
    return ParamPoly._of(params, terms)


def weyl_dimension(datum: RootDatum, a: Sequence[int]) -> int:
    """Product-formula dimension of the even irrep, per simple factor.

    For an sl(k) factor with labels (a_1..a_{k-1}) this is
    prod_{i<j} (l_i - l_j) / (j - i) with l_i = sum_{p>=i} a_p + (k - i).
    Independent of the Gelfand-Tsetlin construction; used as its oracle.
    """
    spec = datum.spec
    validate_even_labels(spec, a)
    num = den = 1
    blocks = [(0, spec.m), (spec.m - 1, spec.n)]
    for offset, size in blocks:
        if size < 2:
            continue
        labels = a[offset:offset + size - 1]
        ell = [sum(labels[i:]) + (size - 1 - i) for i in range(size)]
        for i, j in itertools.combinations(range(size), 2):
            num *= ell[i] - ell[j]
            den *= j - i
    if num % den or num <= 0:
        raise InternalConsistencyError(
            f"Weyl dimension came out as {Fraction(num, den)}")
    return num // den


def _patterns(labels: tuple) -> list:
    """(content, pattern) for each Gelfand-Tsetlin pattern of the sl(k)
    irrep with labels a_1..a_{k-1}, in (level, content, pattern) order.

    A pattern is its rows lambda_1..lambda_k, row p of p entries, under the
    top row lambda_{k,r} = a_r + ... + a_{k-1}; each row interlaces the one
    above, lambda_{p+1,r} >= lambda_{p,r} >= lambda_{p+1,r+1}.  E_pp acts
    by |lambda_p| - |lambda_{p-1}|, so the content is
    c_p = lambda_{k,1} + ... + lambda_{k,p} - |lambda_p|."""
    top = tuple(sum(labels[r:]) for r in range(len(labels) + 1))
    grown = [(top,)]
    for _ in labels:
        grown = [(row,) + rows for rows in grown
                 for row in itertools.product(*map(
                     range, rows[0][1:], [x + 1 for x in rows[0]]))]
    heads = tuple(itertools.accumulate(top[:-1]))
    keyed = [(tuple(head - sum(row) for head, row in zip(heads, pattern)),
              pattern) for pattern in grown]
    return sorted(keyed, key=lambda item: (sum(item[0]), item))


def _actions(patterns: list) -> dict:
    """{(kind, p): (den, [(target, source, int)])}: e_p and f_p,
    p = 1..k-1, on the patterns, each over the lcm of its denominators.

    By Molev's Thm 2.3, with l_{p,r} = lambda_{p,r} - r + 1 and
    D_r = prod_{s != r} (l_{p,r} - l_{p,s}),
      e_p L = -sum_r prod_s (l_{p,r} - l_{p+1,s}) / D_r  L + d_{p,r},
      f_p L =  sum_r prod_s (l_{p,r} - l_{p-1,s}) / D_r  L - d_{p,r},
    where L +- d_{p,r} moves lambda_{p,r} by one, and is dropped where
    that leaves the patterns.  The coefficients depend on rows p-1, p and
    p+1 alone, so they are computed once per such triple of rows."""
    index = {pattern: q for q, (_, pattern) in enumerate(patterns)}
    out = {}
    for p in range(1, len(patterns[0][1])):
        raw: dict = {"e": [], "f": []}
        steps_of: dict = {}           # (below, row, above) -> _steps
        for q, (_, pattern) in enumerate(patterns):
            rows = (pattern[p - 2] if p > 1 else (),) + pattern[p - 1:p + 1]
            steps = steps_of.get(rows)
            if steps is None:
                steps = steps_of[rows] = _steps(*rows)
            head, tail = pattern[:p - 1], pattern[p:]
            for kind, moved, num, den in steps:
                target = index.get(head + (moved,) + tail)
                if target is not None:
                    raw[kind].append((target, q, num, den))
        for kind, entries in raw.items():
            common = lcm(*(den for *_, den in entries))
            out[kind, p] = (common, [(target, source, num * (common // den))
                                     for target, source, num, den in entries])
    return out


def _steps(below: tuple, row: tuple, above: tuple) -> list:
    """(kind, moved row, num, den) for each nonzero coefficient of e_p
    ("e") and f_p ("f") on a pattern with these rows p-1, p and p+1, per
    entry r of row p and kind in that order, num/den in lowest terms with
    den > 0; the moved row is row p with entry r raised (e) or lowered (f)
    by one."""
    ell = [x - s for s, x in enumerate(row)]
    steps = []
    for r, l in enumerate(ell):
        den = prod(l - x for s, x in enumerate(ell) if s != r)
        up = -prod(l - x + s for s, x in enumerate(above))
        down = prod(l - x + s for s, x in enumerate(below))
        for kind, step, num in (("e", 1, up), ("f", -1, down)):
            if num:
                g = gcd(num, den) if den > 0 else -gcd(num, den)
                moved = row[:r] + (row[r] + step,) + row[r + 1:]
                steps.append((kind, moved, num // g, den // g))
    return steps


def build_even_irrep(a: Sequence[int], sc: StructureConstants) -> EvenModule:
    """Construct the irreducible even module with dominant integral labels.

    sl(m) acts on the first pattern of a basis vector as e_i, f_i, h_i for
    i = 1..m-1, and sl(n) on the second as i = m..m+n-2, the numbering of
    ``build_fundamental_rep``."""
    datum, spec = sc.datum, sc.spec
    validate_even_labels(spec, a)
    params = module_params(spec)
    a = tuple(int(x) for x in a)
    m = spec.m
    first, second = _patterns(a[:m - 1]), _patterns(a[m - 1:])
    order = sorted(itertools.product(range(len(first)), range(len(second))),
                   key=lambda q: (sum(first[q[0]][0]) + sum(second[q[1]][0]),
                                  first[q[0]][0] + second[q[1]][0], q))
    dim = len(order)
    oracle = weyl_dimension(datum, a)
    if dim != oracle:
        raise InternalConsistencyError(
            f"even module dimension {dim} disagrees with the Weyl formula {oracle}")

    contents = tuple(first[q1][0] + second[q2][0] for q1, q2 in order)
    terms = {GenLabel("h", i): (1, {
        pos: {pos: h} for pos, content in enumerate(contents)
        if (h := x - sum(map(mul, row, content)))})
        for i, (x, row) in enumerate(zip(a, datum.cartan_matrix), start=1)}
    places = ([[] for _ in first], [[] for _ in second])
    for pos, (q1, q2) in enumerate(order):
        places[0][q1].append(pos)
        places[1][q2].append(pos)
    for offset, patterns, place in ((0, first, places[0]),
                                    (m - 1, second, places[1])):
        for (kind, p), (den, entries) in _actions(patterns).items():
            rows: dict = {}
            for target, source, x in entries:
                for row, col in zip(place[target], place[source]):
                    rows.setdefault(row, {})[col] = x
            terms[GenLabel(kind, offset + p)] = (den, rows)
    labels = [GenLabel(kind, i) for kind in "hef"
              for i in range(1, spec.rank + 1)]
    matrices = {label: PolyMatrix.from_term(dim, dim, params, terms[label])
                for label in labels}

    # the weight of a content is the highest weight minus the content
    # times the simple even roots
    roots = datum.simple_even_roots
    shift_of = {content: tuple(sum(count * root[x]
                                   for count, root in zip(content, roots))
                               for x in range(spec.dim_fund))
                for content in set(contents)}
    return EvenModule(
        labels=a, params=params, dim=dim, contents=contents,
        hw=weight_from_labels(datum, a),
        shifts=tuple(shift_of[content] for content in contents),
        matrices=matrices, y_scalar=labels_to_hypercharge(sc, a),
        z0_scalar=ParamPoly.var(params, "c") if spec.flavor == "gl" else None)
