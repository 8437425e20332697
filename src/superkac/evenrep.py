"""Finite-dimensional irreducible modules of the even subalgebra
sl(m) + sl(n) + h', built from Verma weight spaces and the contravariant
(Shapovalov) form.

A vector of L is named by a word in the simple lowering generators applied
to the highest weight vector.  L is built level by level: the weight space
at a content is spanned by f_i applied to the basis words one level up, and
its Gram matrix on those words follows from the level above by the
Shapovalov recursion <f_i w, x> = <w, e_i x>, with e_i f_j = f_j e_i +
[i = j] h_i.  Exact row reduction of that Gram matrix picks the basis and
gives the f coordinates; the recursion gives the e coordinates.

The Cartan matrix and the even labels are integers, so all of this runs on
Python ints: the Gram entries of words are integers, and each weight space
keeps its e and f coordinates as integer rows over one denominator, in
lowest terms, handed to and read off the integer row reduction
(``exact.integer_rref``).  A weight is the highest weight minus an integer
shift, read once per content.  The hypercharge and (for gl) the central
charge act on everything by scalars, kept symbolic in b and c.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from superkac.algebra import (GenLabel, InternalConsistencyError,
                              RootDatum, StructureConstants, integer_roots,
                              module_params, validate_even_labels,
                              weight_from_labels)
from superkac.exact import ParamPoly, PolyMatrix, integer_rref
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
    h_part = 0
    for label, coeff in sc.d[(1, 1)].items():
        if label.kind == "h":
            h_part += coeff * a[label.index - 1]
        elif label.kind == "z0" and coeff != 0:
            raise InternalConsistencyError("{u_1,v_1} acquired a z0 part")
    return (ParamPoly.var(params, "b") - h_part) * (Fraction(1) / sc.k)


def weyl_dimension(datum: RootDatum, a: Sequence[int]) -> int:
    """Product-formula dimension of the even irrep, per simple factor.

    For an sl(k) factor with labels (a_1..a_{k-1}) this is
    prod_{i<j} (l_i - l_j) / (j - i) with l_i = sum_{p>=i} a_p + (k - i).
    Independent of the Shapovalov construction; used as its oracle.
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


def _step(content: tuple, i: int, delta: int) -> tuple:
    return content[:i] + (content[i] + delta,) + content[i + 1:]


class _WeightSpace(Record, frozen=False):
    """The basis of L at one content, with what the next level reads off it.

    Images are sparse integer coordinate dicts {basis position: int} over
    one denominator per space: f_j of a word is f[j][q] / f_den, e_i of a
    basis word is e[i][p] / e_den.  Each is in lowest terms.
    """

    basis: list       # basis words, in pivot order
    h: tuple          # eigenvalue of each h_i here
    gram: list        # contravariant form on the basis words (int rows)
    f_den: int
    f: dict           # j -> f_j of each basis word at content - e_j, here
    e_den: int
    e: dict           # i -> e_i of each basis word here, at content - e_i


def _weight_space(spaces: dict, content: tuple, h_of) -> _WeightSpace:
    """The weight space of L at content, from the contents one level up.

    The candidates are the words x = (j,) + w for each basis word w at
    content - e_j.  Their raising images follow from the level above,
    e_i f_j w = f_j (e_i w) + [i = j] h_i(w) w, so the Gram entry
    <(i,) + w', x> = <w', e_i x> is a row of the basis Gram at content - e_i
    against those coordinates.  The images are kept over one denominator,
    the lcm of e_den(content - e_j) * f_den(content - e_i); the form of two
    words is an integer, so each Gram entry is an exact quotient by it.
    Only weights of L are asked for (``_lowers``), so a form that vanishes
    there is an error.
    """
    parents = {i: spaces[shrunk] for i in range(len(content))
               if (shrunk := _step(content, i, -1)) in spaces}
    candidates = sorted(((j,) + w, j, q)
                        for j, space in parents.items()
                        for q, w in enumerate(space.basis))
    den = lcm(*(parents[j].e_den * parents[i].f_den
                for i in parents for j in parents))

    def raised(i: int, j: int, q: int) -> dict:
        """den * e_i f_j (word q at content - e_j), in the basis at
        content - e_i."""
        out: dict = {}
        e_i = parents[j].e.get(i)
        if e_i is not None:
            f_j = parents[i].f[j]
            for s, coeff in e_i[q].items():
                for r, x in f_j[s].items():
                    out[r] = out.get(r, 0) + coeff * x
            mult = den // (parents[j].e_den * parents[i].f_den)
            if mult != 1:
                out = {r: x * mult for r, x in out.items()}
        if i == j:
            out[q] = out.get(q, 0) + parents[i].h[i] * den
        return {r: x for r, x in out.items() if x}

    images = {i: [raised(i, j, q) for _, j, q in candidates] for i in parents}
    gram = []
    for _, i, p in candidates:
        row = parents[i].gram[p]
        gram.append([sum([row[r] * x for r, x in image.items()]) // den
                     for image in images[i]])
    pivots, rows = integer_rref({c: x for c, x in enumerate(row) if x}
                                for row in gram)
    if not pivots:
        raise InternalConsistencyError(
            f"the contravariant form vanishes at content {content}, "
            "a weight of the irrep")
    # row reduction keeps the linear relations among the Gram columns, so
    # candidate column col is the sum over k of rows[k][col] / rows[k][lead]
    # times pivot column k; over the lcm of the pivot entries these
    # coordinates are in lowest terms, as each row is primitive
    f_den = lcm(*(row[lead] for lead, row in zip(pivots, rows)))
    coords: list = [{} for _ in candidates]
    for k, (lead, row) in enumerate(zip(pivots, rows)):
        mult = f_den // row[lead]
        for col, x in row.items():
            coords[col][k] = x * mult
    f = {j: [None] * len(space.basis) for j, space in parents.items()}
    for (_, j, q), coord in zip(candidates, coords):
        f[j][q] = coord
    e = {i: [image[c] for c in pivots] for i, image in images.items()}
    g = 1 if den == 1 else gcd(den, *(x for image in e.values()
                                      for coord in image
                                      for x in coord.values()))
    if g != 1:
        den //= g
        e = {i: [{r: x // g for r, x in coord.items()} for coord in image]
             for i, image in e.items()}
    return _WeightSpace(
        basis=[candidates[c][0] for c in pivots], h=h_of(content),
        gram=[[gram[r][c] for c in pivots] for r in pivots],
        f_den=f_den, f=f, e_den=den, e=e)


def _lowers(spaces: dict, content: tuple, j: int) -> bool:
    """Whether content + e_j is a weight of L, content being one.

    The alpha_j-string through a weight of a finite-dimensional module is
    unbroken, p steps up and q down with q - p = h_j, so one step down
    stays a weight iff p + h_j >= 1; p is read off the spaces already
    built, as the contents up the string are at lower levels."""
    p = 0
    while p < content[j] and _step(content, j, -p - 1) in spaces:
        p += 1
    return p + spaces[content].h[j] >= 1


def _term(blocks) -> tuple:
    """(den, {row: {col: int}}) of the blocks (den, start, cols, images):
    the images {r: int / den} of the basis vectors at cols, rows shifted by
    start, over the lcm of the block denominators."""
    common = lcm(*(den for den, *_ in blocks))
    rows: dict = {}
    for den, start, cols, images in blocks:
        mult = common // den
        for col, image in zip(cols, images):
            for r, x in image.items():
                rows.setdefault(start + r, {})[col] = x * mult
    return common, rows


def build_even_irrep(datum: RootDatum, a: Sequence[int],
                     sc: StructureConstants,
                     params: Sequence[str] | None = None) -> EvenModule:
    """Construct the irreducible even module with dominant integral labels.

    Weight spaces are built level by level outward from the highest weight,
    whose Gram matrix is [[1]].  Since L_mu = sum_i f_i L_{mu+alpha_i} and f_i
    maps the radical into itself, the candidate words at a content are
    (i,) + w for every basis word w one level up, and the dimension there is
    the rank of the Gram matrix of the contravariant form on them.  Only
    contents that are weights of L are tried (``_lowers``).  The basis words
    at a weight are the pivot columns of the exact row reduction of that
    Gram matrix (graded lex word order), so the whole construction is
    deterministic.  Each level keeps its basis Gram, the f coordinates of
    its candidates and the e coordinates of its basis words, all on
    integers, which is all the next level reads; h, e and f are assembled
    from those integer rows.
    """
    spec = datum.spec
    validate_even_labels(spec, a)
    params = tuple(params) if params is not None else module_params(spec)
    a = tuple(int(x) for x in a)
    rank = spec.rank
    cartan = datum.cartan_matrix

    def h_of(content: tuple) -> tuple:
        """Eigenvalue of each h_i on any word of the given content."""
        return tuple(x - sum(map(mul, row, content))
                     for x, row in zip(a, cartan))

    # contents in (level, content) order, which is the order of the basis;
    # only weights of L are grown, and growth stops past the oracle
    oracle = weyl_dimension(datum, a)
    highest = (0,) * rank
    spaces = {highest: _WeightSpace(basis=[()], h=a, gram=[[1]], f_den=1,
                                    f={}, e_den=1, e={})}
    level, dim = [highest], 1
    while level and dim <= oracle:
        level = sorted({_step(content, j, 1)
                        for content in level for j in range(rank)
                        if _lowers(spaces, content, j)})
        for content in level:
            space = spaces[content] = _weight_space(spaces, content, h_of)
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

    blocks: dict = {(kind, i): [] for kind in "hef" for i in range(rank)}
    for content, space in spaces.items():
        start, size = offset[content], len(space.basis)
        cols = range(start, start + size)
        for i, h_val in enumerate(space.h):
            if h_val:
                blocks["h", i].append(
                    (1, start, cols, [{p: h_val} for p in range(size)]))
            grown = _step(content, i, 1)
            if grown in spaces:
                blocks["f", i].append((spaces[grown].f_den, offset[grown],
                                       cols, spaces[grown].f[i]))
            if i in space.e:
                blocks["e", i].append((space.e_den,
                                       offset[_step(content, i, -1)], cols,
                                       space.e[i]))
    matrices = {GenLabel(kind, i + 1):
                PolyMatrix.from_term(dim, dim, params, _term(parts))
                for (kind, i), parts in blocks.items()}

    # the weight of a content is hw_coords minus an int shift, and each
    # (coordinate, shift) difference is computed once
    hw_coords = weight_from_labels(datum, a, params)
    roots = integer_roots(datum.simple_even_roots)
    differences: dict = {}
    weights = []
    for content, space in spaces.items():
        shift = [0] * len(hw_coords)
        for count, root in zip(content, roots):
            if count:
                shift = [x + count * r for x, r in zip(shift, root)]
        weight = []
        for k, (hw, x) in enumerate(zip(hw_coords, shift)):
            diff = differences.get((k, x))
            if diff is None:
                diff = differences[(k, x)] = hw - x if x else hw
            weight.append(diff)
        weights += [tuple(weight)] * len(space.basis)

    y_scalar = labels_to_hypercharge(sc, a, params)
    z0_scalar = ParamPoly.var(params, "c") if spec.flavor == "gl" else None

    return EvenModule(
        datum=datum, labels=a, params=params, dim=dim,
        basis_words=tuple(basis_words), contents=tuple(contents),
        weights=tuple(weights), matrices=matrices,
        y_scalar=y_scalar, z0_scalar=z0_scalar)
