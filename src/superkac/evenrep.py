"""Finite-dimensional irreducible modules of the even subalgebra
sl(m) + sl(n) + h', built from Verma weight spaces and the contravariant
(Shapovalov) form.

A vector of L is named by a word in the simple lowering generators applied
to the highest weight vector.  L is built level by level: the weight space
at a content is spanned by f_i applied to the basis words one level up, and
its Gram matrix on those words follows from the level above by the
Shapovalov recursion <f_i w, x> = <w, e_i x>, with e_i f_j = f_j e_i +
[i = j] h_i.  Exact row reduction of that Gram matrix picks the basis and
gives the f coordinates; the recursion gives the e coordinates.  The
hypercharge and (for gl) the central charge act on everything by scalars,
kept symbolic in b and c.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from superkac.algebra import (GenLabel, InternalConsistencyError,
                              RootDatum, StructureConstants, module_params,
                              validate_even_labels, weight_from_labels)
from superkac.exact import ParamPoly, PolyMatrix, rref
from superkac.record import Record


class EvenModule(Record):
    """An irreducible module of the even subalgebra with scalar h' action."""

    datum: RootDatum
    labels: tuple                     # even Dynkin labels a_1..a_r
    params: tuple                     # ("b",) or ("b", "c")
    dim: int
    basis_words: tuple                # word in simple lowering ops per vector
    contents: tuple                   # root-coordinate content per vector
    weights: tuple                    # epsilon/delta coordinates (ParamPoly)
    matrices: dict                    # GenLabel h/e/f -> PolyMatrix
    y_scalar: ParamPoly               # hypercharge eigenvalue y0(b)
    z0_scalar: ParamPoly | None       # central charge c, gl only


def labels_to_hypercharge(sc: StructureConstants, a: Sequence[int],
                          params: Sequence[str] | None = None) -> ParamPoly:
    """Hypercharge eigenvalue y0 on the highest weight, linear in b.

    Inverts {u_1, v_1} = d^a_11 h_a + k y on the highest weight state, where
    the h eigenvalues are the even Dynkin labels.
    """
    spec = sc.spec
    validate_even_labels(spec, a)
    params = tuple(params) if params is not None else module_params(spec)
    b = ParamPoly.var(params, "b")
    acc = b
    for label, coeff in sc.d[(1, 1)].items():
        if label.kind == "h":
            acc = acc - coeff * a[label.index - 1]
        elif label.kind == "z0" and coeff != 0:
            raise InternalConsistencyError("{u_1,v_1} acquired a z0 part")
    return acc * (Fraction(1) / sc.k)


def weyl_dimension(datum: RootDatum, a: Sequence[int]) -> int:
    """Product-formula dimension of the even irrep, per simple factor.

    For an sl(k) factor with labels (a_1..a_{k-1}) this is
    prod_{i<j} (l_i - l_j) / (j - i) with l_i = sum_{p>=i} a_p + (k - i).
    Independent of the Shapovalov construction; used as its oracle.
    """
    spec = datum.spec
    validate_even_labels(spec, a)
    total = Fraction(1)
    blocks = [(0, spec.m), (spec.m - 1, spec.n)]
    for offset, size in blocks:
        if size < 2:
            continue
        labels = a[offset:offset + size - 1]
        ell = [sum(labels[i:]) + (size - 1 - i) for i in range(size)]
        for i, j in itertools.combinations(range(size), 2):
            total *= Fraction(ell[i] - ell[j], j - i)
    if total.denominator != 1 or total <= 0:
        raise InternalConsistencyError(f"Weyl dimension came out as {total}")
    return int(total)


def _step(content: tuple, i: int, delta: int) -> tuple:
    return content[:i] + (content[i] + delta,) + content[i + 1:]


class _WeightSpace(Record, frozen=False):
    """The basis of L at one content, with what the next level reads off it.

    Images are sparse coordinate dicts {basis position: coefficient}.
    """

    basis: list       # basis words, in pivot order
    gram: list        # contravariant form on the basis words
    f: dict           # j -> f_j of each basis word at content - e_j, here
    e: dict           # i -> e_i of each basis word here, at content - e_i


def _weight_space(spaces: dict, content: tuple,
                  h_eigen) -> _WeightSpace | None:
    """The weight space of L at content, from the contents one level up.

    The candidates are the words x = (j,) + w for each basis word w at
    content - e_j.  Their raising images follow from the level above,
    e_i f_j w = f_j (e_i w) + [i = j] h_i(w) w, so the Gram entry
    <(i,) + w', x> = <w', e_i x> is a row of the basis Gram at content - e_i
    against those coordinates.  None if the form vanishes there.
    """
    parents = {i: spaces[shrunk] for i in range(len(content))
               if (shrunk := _step(content, i, -1)) in spaces}
    candidates = sorted(((j,) + w, j, q)
                        for j, space in parents.items()
                        for q, w in enumerate(space.basis))

    def raised(i: int, j: int, q: int) -> dict:
        """e_i f_j (word q at content - e_j), in the basis at content - e_i."""
        out: dict = {}
        e_i = parents[j].e.get(i)
        if e_i is not None:
            f_j = parents[i].f[j]
            for s, coeff in e_i[q].items():
                for r, x in f_j[s].items():
                    out[r] = out.get(r, 0) + coeff * x
        if i == j:
            out[q] = out.get(q, 0) + h_eigen(i, _step(content, i, -1))
        return {r: x for r, x in out.items() if x}

    images = {i: [raised(i, j, q) for _, j, q in candidates] for i in parents}
    gram = [[sum(parents[i].gram[p][r] * x for r, x in image.items())
             for image in images[i]]
            for _, i, p in candidates]
    pivots, reduced = rref({c: x for c, x in enumerate(row) if x}
                           for row in gram)
    if not pivots:
        return None
    # row reduction keeps the linear relations among the Gram columns, so
    # candidate column col is the sum over k of reduced[k][col] * pivot
    # column k
    f = {j: [None] * len(space.basis) for j, space in parents.items()}
    for col, (_, j, q) in enumerate(candidates):
        f[j][q] = {k: row[col] for k, row in enumerate(reduced) if col in row}
    return _WeightSpace(
        basis=[candidates[c][0] for c in pivots],
        gram=[[gram[r][c] for c in pivots] for r in pivots],
        f=f,
        e={i: [image[c] for c in pivots] for i, image in images.items()})


def build_even_irrep(datum: RootDatum, a: Sequence[int],
                     sc: StructureConstants,
                     params: Sequence[str] | None = None) -> EvenModule:
    """Construct the irreducible even module with dominant integral labels.

    Weight spaces are built level by level outward from the highest weight,
    whose Gram matrix is [[1]].  Since L_mu = sum_i f_i L_{mu+alpha_i} and f_i
    maps the radical into itself, the candidate words at a content are
    (i,) + w for every basis word w one level up; a weight survives iff the
    Gram matrix of the contravariant form on its candidates has positive
    rank.  The basis words at a weight are the pivot columns of the exact
    row reduction of that Gram matrix (graded lex word order), so the whole
    construction is deterministic.  Each level keeps its basis Gram, the f
    coordinates of its candidates and the e coordinates of its basis words,
    which is all the next level reads.
    """
    spec = datum.spec
    validate_even_labels(spec, a)
    params = tuple(params) if params is not None else module_params(spec)
    a = tuple(int(x) for x in a)
    rank = spec.rank
    cartan = datum.cartan_matrix

    def h_eigen(i: int, content: tuple) -> int:
        """Eigenvalue of h_i on any word of the given content."""
        return a[i] - sum(cartan[i][j] * content[j] for j in range(rank))

    # contents in (level, content) order, which is the order of the basis;
    # a wrong form would never vanish, so growth stops past the oracle
    oracle = weyl_dimension(datum, a)
    highest = (0,) * rank
    spaces = {highest: _WeightSpace(basis=[()], gram=[[1]], f={}, e={})}
    level, dim = [highest], 1
    while level and dim <= oracle:
        grown = sorted({_step(content, j, 1)
                        for content in level for j in range(rank)})
        level = []
        for content in grown:
            space = _weight_space(spaces, content, h_eigen)
            if space is not None:
                spaces[content] = space
                level.append(content)
                dim += len(space.basis)

    offset: dict = {}
    basis_words, contents = [], []
    for content, space in spaces.items():
        offset[content] = len(basis_words)
        basis_words += space.basis
        contents += [content] * len(space.basis)

    if dim != oracle:
        raise InternalConsistencyError(
            f"even module dimension {dim} disagrees with the Weyl formula {oracle}")

    mats: dict = {lab: {} for lab in
                  [GenLabel("h", i) for i in range(1, rank + 1)]
                  + [GenLabel("e", i) for i in range(1, rank + 1)]
                  + [GenLabel("f", i) for i in range(1, rank + 1)]}
    for content, space in spaces.items():
        for p in range(len(space.basis)):
            col = offset[content] + p
            for i in range(rank):
                h_val = h_eigen(i, content)
                if h_val:
                    mats[GenLabel("h", i + 1)][(col, col)] = Fraction(h_val)
                grown = _step(content, i, 1)
                if grown in spaces:
                    start = offset[grown]
                    for k, coeff in spaces[grown].f[i][p].items():
                        mats[GenLabel("f", i + 1)][(start + k, col)] = coeff
                if i in space.e:
                    start = offset[_step(content, i, -1)]
                    # rows in basis order, like every other matrix here
                    for r, coeff in sorted(space.e[i][p].items()):
                        mats[GenLabel("e", i + 1)][(start + r, col)] = coeff

    matrices = {lab: PolyMatrix(dim, dim, params, entries)
                for lab, entries in mats.items()}

    hw_coords = weight_from_labels(datum, a, params)
    weights = []
    for content in contents:
        coord = list(hw_coords)
        for j, count in enumerate(content):
            if count:
                root = datum.simple_even_roots[j]
                coord = [cc - count * rr for cc, rr in zip(coord, root)]
        weights.append(tuple(coord))

    y_scalar = labels_to_hypercharge(sc, a, params)
    z0_scalar = ParamPoly.var(params, "c") if spec.flavor == "gl" else None

    return EvenModule(
        datum=datum, labels=a, params=params, dim=dim,
        basis_words=tuple(basis_words), contents=tuple(contents),
        weights=tuple(weights), matrices=matrices,
        y_scalar=y_scalar, z0_scalar=z0_scalar)
