"""Root data, fundamental representation and structure constants of
gl(m|n) / sl(m|n) in the distinguished basis.

Conventions fixed here and used everywhere downstream:

* Weights live in epsilon/delta coordinates, a tuple of length m+n holding
  (eps_1..eps_m, delta_1..delta_n) components.  The invariant bilinear form
  is diagonal with signature (+1,...,+1, -1,...,-1).
* The single odd simple root is beta_1 = eps_m - delta_1.  The mn positive
  odd roots eps_i - delta_j are enumerated starting from beta_1, with i
  descending and j ascending, so u_1 is the lowest weight vector of the odd
  raising multiplet and v_1 the highest of the lowering one.
* The hypercharge y is the unique element of the centre of the even
  subalgebra with [y, u_idx] = u_idx and [y, v_idx] = -v_idx that is
  supertraceless; concretely y = diag(n..n, m..m) / (n - m).  This makes the
  odd generators carry hypercharge grade exactly +-1 and the layer grading
  of induced modules descend in integer steps.
* Structure constants are extracted from the fundamental representation,
  over the full basis obtained by closing the simple raising/lowering
  generators under iterated commutators.  Each root vector is one
  off-diagonal entry, a matrix unit up to scale, so each bracket is read
  off matrix units and only root pairs that meet at an index are
  bracketed; a diagonal is solved against the Cartan labels by a left
  inverse, from one RREF of [A | I] per table (``exact.integer_rref``).
  ``algebra_of`` builds that table once per spec, and every job on the
  spec shares it.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, total_ordering
from math import gcd, lcm

from superkac.exact import (ParamPoly, PolyMatrix, combination,
                           echelon_insert, integer_rref)
from superkac.record import Record
from superkac.report import VerificationReport


class InputError(ValueError):
    """User-facing validation failure (CLI exit code 2)."""


class InternalConsistencyError(RuntimeError):
    """A must-never-happen exactness invariant was violated."""


@total_ordering
class GenLabel:
    """A generator label: kind in {h,e,f,y,z0,u,v} plus internal E/F for the
    nonsimple even root vectors obtained as iterated commutators.

    Immutable; equal and ordered by (kind, index)."""

    # labels key every table and matrix dict, so the hash is computed once
    __slots__ = ("kind", "index", "_hash")

    def __init__(self, kind: str, index: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_hash", hash((kind, index)))

    def __setattr__(self, name, value):
        raise AttributeError("GenLabel is immutable")

    def __delattr__(self, name):
        raise AttributeError("GenLabel is immutable")

    def replace(self, **changes) -> "GenLabel":
        return GenLabel(**{"kind": self.kind, "index": self.index, **changes})

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not GenLabel:
            return NotImplemented
        return self.kind == other.kind and self.index == other.index

    def __lt__(self, other):
        if other.__class__ is not GenLabel:
            return NotImplemented
        return (self.kind, self.index) < (other.kind, other.index)

    def __reduce__(self):
        # rebuilt through __init__, so a copy or an unpickled label
        # recomputes its hash (str hashes differ between processes)
        return GenLabel, (self.kind, self.index)

    def __repr__(self) -> str:
        return f"GenLabel(kind={self.kind!r}, index={self.index!r})"

    def __str__(self) -> str:
        if self.kind in ("y", "z0"):
            return self.kind
        return f"{self.kind}_{self.index}"

    @classmethod
    def parse(cls, text: str) -> "GenLabel":
        if text in ("y", "z0"):
            return cls(text)
        kind, _, idx = text.partition("_")
        if kind not in ("h", "e", "f", "u", "v", "E", "F") or not idx.isdigit():
            raise InputError(f"unknown generator label {text!r}")
        return cls(kind, int(idx))


class SuperAlgebraSpec(Record):
    m: int
    n: int
    flavor: str  # "gl" | "sl"

    def _validate(self):
        if self.flavor not in ("gl", "sl"):
            raise InputError(f"flavor must be 'gl' or 'sl', got {self.flavor!r}")
        if self.m < 1 or self.n < 1:
            raise InputError("m and n must be positive")
        if self.flavor == "sl" and self.m == self.n:
            raise InputError(
                f"sl({self.m}|{self.n}) is rejected: for m = n the hypercharge "
                "is supertraceless and quotients away, so the odd Dynkin label "
                "is quantized and the whole construction degenerates")

    @property
    def rank(self) -> int:
        return self.m + self.n - 2

    @property
    def odd_count(self) -> int:
        return self.m * self.n

    @property
    def dim_fund(self) -> int:
        return self.m + self.n

    def __str__(self) -> str:
        return f"{self.flavor}({self.m}|{self.n})"


Weight = tuple  # length m+n: int, Fraction or ParamPoly entries


class RootDatum(Record):
    """Distinguished-basis root data for gl/sl(m|n).

    The roots are int tuples; rho is a Fraction tuple, half an integer
    vector."""

    spec: SuperAlgebraSpec
    simple_even_roots: tuple          # r weights
    even_positive_roots: tuple        # all weights, simple ones first per height
    even_root_pairs: tuple            # matching (a, b) 0-based matrix positions
    odd_positive_roots: tuple         # P weights, beta_1 = eps_m - delta_1 first
    odd_pairs: tuple                  # matching (i, j), i in 0..m-1, j in 0..n-1
    cartan_matrix: tuple              # r x r integer tuples
    rho: Weight

    def _validate(self):
        # the weight shifts of evenrep and kacmod add roots as ints
        for root in (self.simple_even_roots + self.even_positive_roots
                     + self.odd_positive_roots):
            if any(x.__class__ is not int for x in root):
                raise InternalConsistencyError(
                    f"root {tuple(map(str, root))} has a coordinate that is "
                    "not an integer")

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def odd_count(self) -> int:
        return self.spec.odd_count


def build_root_datum(spec: SuperAlgebraSpec) -> RootDatum:
    """The root datum on ints: each root is a difference of two unit
    vectors, and rho = rho0 - rho1 is read off the closed form of
    2 rho = (m-1-n-2i | n-1+m-2j), from 2 rho0 = (m-1-2i | n-1-2j) and
    2 rho1 = (n..n | -m..-m)."""
    m, n = spec.m, spec.n
    zero = (0,) * (m + n)

    def root(lo: int, hi: int) -> tuple:
        """unit vector lo minus unit vector hi"""
        w = list(zero)
        w[lo], w[hi] = 1, -1
        return tuple(w)

    # Even positive roots per block, ordered by height then start index, so a
    # nonsimple vector is always a commutator of earlier ones.
    even_pairs = [(lo, lo + height) for base, size in ((0, m), (m, n))
                  for height in range(1, size)
                  for lo in range(base, base + size - height)]
    even_roots = [root(*pair) for pair in even_pairs]
    simple = [root(lo, lo + 1) for lo in (*range(m - 1), *range(m, m + n - 1))]
    odd_pairs = [(i, j) for i in range(m - 1, -1, -1) for j in range(n)]
    odd_roots = [root(i, m + j) for i, j in odd_pairs]

    r = spec.rank
    cartan = tuple(
        tuple(0 if (i < m - 1) != (j < m - 1) else
              2 if i == j else -1 if abs(i - j) == 1 else 0
              for j in range(r))
        for i in range(r))

    two_rho = [m - 1 - n - 2 * i for i in range(m)] + \
        [n - 1 + m - 2 * j for j in range(n)]
    halves = {x: Fraction(x, 2) for x in two_rho}
    return RootDatum(
        spec=spec,
        simple_even_roots=tuple(simple),
        even_positive_roots=tuple(even_roots),
        even_root_pairs=tuple(even_pairs),
        odd_positive_roots=tuple(odd_roots),
        odd_pairs=tuple(odd_pairs),
        cartan_matrix=cartan,
        rho=tuple(halves[x] for x in two_rho),
    )


# -- fundamental representation --------------------------------------------

def _unit_matrix(dim: int, r: int, c: int) -> PolyMatrix:
    return PolyMatrix._of(dim, dim, (), {(): (1, {r: {c: 1}})})


class FundamentalRep(Record):
    spec: SuperAlgebraSpec
    datum: RootDatum
    matrices: dict            # GenLabel -> PolyMatrix over (), full basis

    @property
    def dim(self) -> int:
        return self.spec.dim_fund


def _hypercharge(spec: SuperAlgebraSpec) -> PolyMatrix:
    """y = diag(n..n, m..m) / (n - m), so [y, u] = u exactly and y is
    supertraceless, for m != n; diag(1..1, -1..-1) / 2 for m = n."""
    m, n = spec.m, spec.n
    top, bot, den = (n, m, n - m) if m != n else (1, -1, 2)
    if den < 0:
        top, bot, den = -top, -bot, -den
    g = gcd(top, bot, den)
    rows = {i: {i: (top if i < m else bot) // g} for i in range(m + n)}
    return PolyMatrix._of(m + n, m + n, (), {(): (den // g, rows)})


def build_fundamental_rep(spec: SuperAlgebraSpec) -> FundamentalRep:
    """The matrix of every basis label, each built straight from its
    integer term: the root vectors, nonsimple ones included, are matrix
    units, h_i and y diagonal, z0 the identity."""
    datum = build_root_datum(spec)
    m, dim = spec.m, spec.dim_fund
    mats: dict = {}

    for i in range(1, spec.rank + 1):
        a = i - 1 if i <= m - 1 else i     # first slot of alpha_i
        mats[GenLabel("e", i)] = _unit_matrix(dim, a, a + 1)
        mats[GenLabel("f", i)] = _unit_matrix(dim, a + 1, a)
        mats[GenLabel("h", i)] = PolyMatrix._of(
            dim, dim, (), {(): (1, {a: {a: 1}, a + 1: {a + 1: -1}})})

    mats[GenLabel("y")] = _hypercharge(spec)
    if spec.flavor == "gl":
        mats[GenLabel("z0")] = PolyMatrix.identity(dim, ())

    for idx, (i, j) in enumerate(datum.odd_pairs, start=1):
        mats[GenLabel("u", idx)] = _unit_matrix(dim, i, m + j)
        mats[GenLabel("v", idx)] = _unit_matrix(dim, m + j, i)

    for label, (r, c) in _full_basis(spec, datum)[2].items():
        mats[label] = _unit_matrix(dim, r, c)
    return FundamentalRep(spec=spec, datum=datum, matrices=mats)


def parity_of(label: GenLabel) -> int:
    return 1 if label.kind in ("u", "v") else 0


def sbracket(pa: int, pb: int, ma: PolyMatrix, mb: PolyMatrix) -> list:
    """Superbracket of matrices as ``combination`` product terms:
    commutator, or anticommutator when both odd."""
    return [(1, ma, mb), (1 if (pa and pb) else -1, mb, ma)]


# -- structure constants ----------------------------------------------------

class StructureConstants(Record):
    spec: SuperAlgebraSpec
    datum: RootDatum
    basis: tuple                      # full ordered GenLabel basis
    recipes: dict                     # nonsimple GenLabel -> (left, right)
    table: dict                       # (GenLabel, GenLabel) -> {GenLabel: Fraction}
    k: Fraction                       # y coefficient of {u_i, v_i}

    def bracket(self, a: GenLabel, b: GenLabel) -> dict:
        return self.table.get((a, b), {})

    @cached_property
    def generators(self) -> tuple:
        """``generating_set(self)``, computed once."""
        return generating_set(self)

    @cached_property
    def root_weights(self):
        """``_root_weights(self)``, computed once: the table premises of
        the root-space certificate of ``bracket_violations``."""
        return _root_weights(self)

    @cached_property
    def presentation(self):
        """The Serre presentation of the table's algebra (``_presentation``),
        read once per spec off ``algebra_of(spec)``; None where this table
        differs from that one, as a corrupted or restricted table does,
        since the presentation theorem speaks of that table."""
        canonical = algebra_of(self.spec)
        if self is canonical:
            return _presentation(self)
        if (self.basis, self.recipes, self.table) != \
                (canonical.basis, canonical.recipes, canonical.table):
            return None
        return canonical.presentation


def generating_set(sc: StructureConstants) -> tuple:
    """A set X of basis labels that generates the table's algebra.

    The seed is the simple raising e_i and u_1 and every label whose
    brackets with the simple lowering f_i and v_1 vanish, the lowest-
    weight vectors of ad: e_i, u_1 and v_P for sl, as g = U(n+) f_theta
    (Kac, Adv. Math. 26, 1977), z0 too for gl.  Its iterated brackets grow an
    echelon form over basis positions (``exact.echelon_insert``), and
    every label still outside the span is added, so X generates
    whatever the seed.  X is listed in basis order.  A bracket with a
    seed label x is read off the integer columns of ad x over one
    denominator, which scales each image but not the span.
    """
    lowering = [lab for lab in sc.basis
                if lab.kind == "f" or lab == GenLabel("v", 1)]
    seed = [lab for lab in sc.basis
            if lab.kind == "e" or lab == GenLabel("u", 1)
            or not any(sc.bracket(x, lab) for x in lowering)]
    echelon: dict = {}                # over basis positions
    order = {lab: pos for pos, lab in enumerate(sc.basis)}
    ads = []                          # per seed label, column per position
    for x in seed:
        columns = [sc.bracket(x, lab) for lab in sc.basis]
        den = lcm(*(c.denominator for col in columns for c in col.values()))
        ads.append([{order[t]: c.numerator * (den // c.denominator)
                     for t, c in col.items()} for col in columns])
    queue = [{order[lab]: 1} for lab in seed]
    while queue:
        vec = echelon_insert(echelon, queue.pop())
        if vec is None:
            continue
        for columns in ads:
            image: dict = {}
            for pos, coeff in vec.items():
                for t, c in columns[pos].items():
                    image[t] = image.get(t, 0) + coeff * c
            queue.append(image)
    completion = [lab for lab in sc.basis
                  if echelon_insert(echelon, {order[lab]: 1}) is not None]
    return tuple(lab for lab in sc.basis
                 if lab in completion or lab in seed)


_CARTAN = ("h", "y", "z0")
# the triangular parts n0+, n0-, g+1 and g-1 of the root labels
_PARTS = (("e", "E"), ("f", "F"), ("u",), ("v",))


def _root_weights(sc: StructureConstants):
    """(cartan, dens, weights, parts), the table premises of the root-space
    certificate of ``bracket_violations``, or None where one fails.

    Each Cartan label h (h_i, y, z0) acts diagonally, [h, b] = alpha_b(h) b,
    which gives each label b a weight alpha_b.  The Cartan labels weigh 0,
    the root labels have nonzero, pairwise distinct weights, t in [a, b]
    implies alpha_t = alpha_a + alpha_b, and the table is
    graded-antisymmetric.  Parity is read off the label kind (``parity_of``),
    so the Cartan labels are even and each triangular part has one parity.
    ``cartan`` lists the Cartan labels, ``dens`` per Cartan label the lcm
    of the denominators of the alpha_b(h), ``weights`` maps each label to
    its alpha as ints over ``dens``, and ``parts`` holds the nonempty parts
    e/E, f/F, u and v, each in basis order.
    """
    cartan = tuple(lab for lab in sc.basis if lab.kind in _CARTAN)
    parts = tuple(part for part in (
        tuple(lab for lab in sc.basis if lab.kind in kinds)
        for kinds in _PARTS) if part)
    if len(cartan) + sum(map(len, parts)) != len(sc.basis):
        return None
    columns = []                      # per Cartan label, {label: alpha(h)}
    for h in cartan:
        column = {}
        for lab in sc.basis:
            expansion = sc.bracket(h, lab)
            if any(t != lab for t in expansion):
                return None
            column[lab] = expansion.get(lab, 0)
        columns.append(column)
    dens = tuple(lcm(*(x.denominator for x in column.values()))
                 for column in columns)
    weights = {lab: tuple(col[lab].numerator * (d // col[lab].denominator)
                          for col, d in zip(columns, dens))
               for lab in sc.basis}
    # packed in base 3M + 1, M the largest |alpha(h)|: a signed sum of at
    # most three packed weights is 0 only if that of the weights is
    base = 3 * max((abs(x) for w in weights.values() for x in w),
                   default=0) + 1
    key = {lab: sum(x * base ** i for i, x in enumerate(w))
           for lab, w in weights.items()}
    roots = [key[lab] for part in parts for lab in part]
    if (any(key[h] for h in cartan) or 0 in roots
            or len(set(roots)) != len(roots)):
        return None
    for (a, b), expansion in sc.table.items():
        sign = 1 if (parity_of(a) and parity_of(b)) else -1
        weight = key[a] + key[b]
        if (any(key.get(t) != weight for t in expansion)
                or not _is_mirror(expansion, sc.bracket(b, a), sign)):
            return None
    return cartan, dens, weights, parts


def _full_basis(spec: SuperAlgebraSpec, datum: RootDatum):
    """(basis, recipes, units): the ordered full basis, the bracket recipes
    of the nonsimple root vectors and their slots in the fundamental rep.

    A root pair (a, b) of height one is a simple generator; taller vectors are
    defined recursively by E_(a,b) = [E_(a,a+1), E_(a+1,b)] and
    F_(a,b) = [F_(a+1,b), F_(a,a+1)], so a recipe is the pair of operands
    (left, right) of that bracket.  On matrix units [E_rk, E_kc] = E_rc for
    r != c, so E_(a,b) is the unit at (a, b) and F_(a,b) the one at (b, a).
    """
    pair_pos = {pair: t for t, pair in enumerate(datum.even_root_pairs)}

    def label(kind: str, pair: tuple) -> GenLabel:
        """The root vector of kind E or F at an even root pair: a simple
        e_i or f_i for height one, numbered through sl(m) and then sl(n),
        and otherwise numbered by the pair's place in the datum."""
        a, b = pair
        if b - a == 1:
            return GenLabel(kind.lower(), a + 1 if a < spec.m else a)
        return GenLabel(kind, pair_pos[pair] + 1)

    basis = [GenLabel("h", i) for i in range(1, spec.rank + 1)]
    basis.append(GenLabel("y"))
    if spec.flavor == "gl":
        basis.append(GenLabel("z0"))

    recipes, units = {}, {}
    raising, lowering = [], []
    for pair in datum.even_root_pairs:
        a, b = pair
        e_lab, f_lab = label("E", pair), label("F", pair)
        raising.append(e_lab)
        lowering.append(f_lab)
        if b - a > 1:
            recipes[e_lab] = (label("E", (a, a + 1)), label("E", (a + 1, b)))
            recipes[f_lab] = (label("F", (a + 1, b)), label("F", (a, a + 1)))
            units[e_lab], units[f_lab] = (a, b), (b, a)
    basis += raising + lowering
    basis += [GenLabel("u", i) for i in range(1, spec.odd_count + 1)]
    basis += [GenLabel("v", i) for i in range(1, spec.odd_count + 1)]
    return basis, recipes, units


def extend_matrices(matrices: Mapping[GenLabel, PolyMatrix],
                    recipes: Mapping) -> dict:
    """Add matrices for nonsimple root-vector labels via their recipes."""
    out = dict(matrices)
    for label in recipes:
        _ensure_matrix(label, out, recipes)
    return out


def _ensure_matrix(label: GenLabel, out: dict, recipes: Mapping) -> PolyMatrix:
    """out[label], first derived from its recipe (operands first) if absent."""
    if label not in out:
        left, right = recipes[label]
        out[label] = combination(sbracket(0, 0,
                                          _ensure_matrix(left, out, recipes),
                                          _ensure_matrix(right, out, recipes)))
    return out[label]


def structure_constants(rep: FundamentalRep) -> StructureConstants:
    """The superbracket table of the fundamental representation, read off
    the matrix of every basis label in ``rep.matrices``.

    Every root vector is one off-diagonal entry x at a slot (r, c) of its
    own, and the Cartan labels are diagonal: their diagonals are the
    columns of a dim x (rank + 1) (sl) or dim x (rank + 2) (gl) matrix A of
    full column rank.  So each bracket is read off matrix units:
    [x E_rc, x' E_r'c'} = x x' (δ_cr' E_rc' ∓ δ_c'r E_r'c) meets only the
    roots that start at c or end at r, and a Cartan label D scales E_rc by
    D_r − D_c.  One RREF of [A | I] gives a left inverse of A, whose
    product with a diagonal d holds d's coefficients, and the annihilator
    rows, which vanish on d iff d lies in the span of A.  Each unordered
    pair is computed once, over integers, and its mirror written with the
    graded sign; the table lists its pairs in basis order.
    """
    spec, datum = rep.spec, rep.datum
    basis, recipes, _ = _full_basis(spec, datum)
    mats = rep.matrices
    dim = spec.dim_fund

    roots = []                        # (position, r, c, numerator, denominator)
    slots = {}                        # (r, c) off the diagonal -> its root
    cartan = []                       # (position, {i: numerator}, denominator)
    for pos, lab in enumerate(basis):
        den, stored = mats[lab].integer_term()
        if all(len(row) == 1 and r in row for r, row in stored.items()):
            cartan.append((pos, {i: row[i] for i, row in stored.items()}, den))
            continue
        if len(stored) != 1 or len(next(iter(stored.values()))) != 1:
            raise InternalConsistencyError(
                f"{lab} is neither diagonal nor one off-diagonal entry")
        (r, row), = stored.items()
        (c, x), = row.items()
        if (r, c) in slots:
            raise InternalConsistencyError(
                f"{lab} shares the entry {(r, c)} with {basis[slots[r, c][0]]}")
        slots[r, c] = (pos, r, c, x, den)
        roots.append(slots[r, c])
    width = len(cartan)
    # row i of [A | I], over the common denominator of the Cartan labels;
    # its RREF is [I | L] over [0 | N]: L A = I and N A = 0
    common = lcm(*(den for _, _, den in cartan))
    rows = [{width + i: common} for i in range(dim)]
    for k, (_, diag, den) in enumerate(cartan):
        for i, x in diag.items():
            rows[i][k] = x * (common // den)
    pivots, reduced = integer_rref(rows)
    if pivots[:width] != list(range(width)):
        raise InternalConsistencyError("the Cartan labels are linearly dependent")
    # row k of L is reduced[k] / reduced[k][k] without its pivot, the only
    # entry left of the I part; the rows of L go over one denominator
    scale = lcm(*(row[k] for k, row in enumerate(reduced[:width])))
    left = [{c - width: x * (scale // row[k]) for c, x in row.items() if c != k}
            for k, row in enumerate(reduced[:width])]
    annihilator = [{c - width: x for c, x in row.items()}
                   for row in reduced[width:]]

    def solve(vec: dict, den: int):
        """[(position, numerator, denominator)] of the diagonal vec / den
        over the Cartan labels, or None outside their span."""
        if any(sum(row.get(i, 0) * v for i, v in vec.items())
               for row in annihilator):
            return None
        terms = []
        for (pos, _, _), row in zip(cartan, left):
            num = sum(row.get(i, 0) * v for i, v in vec.items())
            if num:
                terms.append((pos, num, den * scale))
        return terms

    fractions: dict = {}              # (numerator, denominator) -> Fraction
    brackets = [{} for _ in basis]    # position -> {position: expansion}

    def put(i: int, j: int, s: int, terms) -> None:
        """[b_i, b_j} = sum num / den b_t and [b_j, b_i} = s times that,
        each an expansion {label: Fraction}, both None where the bracket
        leaves the basis."""
        if terms is None:
            brackets[i][j] = brackets[j][i] = None
            return
        for row, col, sign in ((i, j, 1), (j, i, s)):
            expansion = brackets[row][col] = {}
            for t, num, den in terms:
                key = (sign * num, den)
                if key not in fractions:
                    fractions[key] = Fraction(*key)
                expansion[basis[t]] = fractions[key]

    # The Cartan labels h, y (and z0) are even, so Cartan x Cartan is 0 and
    # Cartan x root the weight difference.  An odd label on the diagonal is
    # a root moved off its slot, and the roots that meet there do not close.
    for p, diag, den in cartan:
        for q, r, c, _, _ in roots:
            num = diag.get(r, 0) - diag.get(c, 0)
            if num:
                put(p, q, -1, [(q, num, den)])

    # every pair that meets is found once from its left factor x E_rc,
    # among the roots y E_cc2 that start at c, and a transposed pair
    # (c2 = r) from both of its factors
    starting = {}                     # row r -> the roots there
    for root in roots:
        starting.setdefault(root[1], []).append(root)
    odd = [parity_of(lab) for lab in basis]
    for p, r, c, xn, xd in roots:
        for q, _, c2, yn, yd in starting.get(c, ()):
            s = 1 if (odd[p] and odd[q]) else -1
            if c2 == r:
                if p < q:
                    put(p, q, s, solve({r: xn * yn, c: s * xn * yn}, xd * yd))
            elif (r, c2) in slots:
                t, _, _, zn, zd = slots[(r, c2)]
                put(p, q, s, [(t, xn * yn * zd, xd * yd * zn)])
            else:
                put(p, q, s, None)

    table = {}
    for la, row in zip(basis, brackets):
        for j in sorted(row):
            if row[j] is None:
                raise InternalConsistencyError(
                    f"superbracket [{la}, {basis[j]}] does not close on the "
                    "basis")
            table[(la, basis[j])] = row[j]

    ylab = GenLabel("y")
    k = None
    P = spec.odd_count
    for i in range(1, P + 1):
        for j in range(1, P + 1):
            exp = table.get((GenLabel("u", i), GenLabel("v", j)), {})
            ycoeff = exp.get(ylab, 0)
            if i == j:
                if k is None:
                    k = ycoeff
                elif ycoeff != k:
                    raise InternalConsistencyError(
                        "hypercharge coefficient of {u_i, v_i} is not uniform")
            elif ycoeff != 0:
                raise InternalConsistencyError(
                    "{u_i, v_j} has a hypercharge part off the diagonal")
    if k is None or k == 0:
        # happens exactly for gl(n|n): the odd Cartan element falls into the
        # span of the semisimple part and the centre, so the odd label is
        # not an independent parameter and the whole construction degenerates
        raise InputError(
            f"{spec} has a vanishing hypercharge coefficient in the odd "
            "contraction; modules with a free odd label need m != n")

    return StructureConstants(spec=spec, datum=datum, basis=tuple(basis),
                              recipes=recipes, table=table, k=k)


@lru_cache(maxsize=None)
def algebra_of(spec: SuperAlgebraSpec) -> StructureConstants:
    """The table ``structure_constants`` builds for spec, built once per
    spec and shared, with its ``generators``, ``root_weights`` and
    ``presentation``, by every job on that algebra.  It depends on the spec
    alone; no caller mutates it."""
    return structure_constants(build_fundamental_rep(spec))


def super_jacobi_report(sc: StructureConstants) -> VerificationReport:
    """Exact graded Jacobi identity with the verdict of every basis triple,
    checked as "ad is a representation" by the relation checker on the
    pairs that contain a label of ``sc.generators``.

    With ad_a[t, c] = table[(a, c)][t], column c of
    [ad_a, ad_b} - sum_t f_ab^t ad_t is the Jacobi defect J(a, b, c) =
    [a,[b,c]] - (-1)^{|a||b|}[b,[a,c]] - [[a,b],c].  The generator pairs
    decide every triple with no Jacobi premise (see ``bracket_violations``,
    the ad case), so a defect anywhere fails the check.  Each ad_a is
    built as one integer term over the lcm of its denominators.
    """
    index = {lab: i for i, lab in enumerate(sc.basis)}
    columns = {lab: [] for lab in sc.basis}
    for (a, c), expansion in sc.table.items():
        columns[a].append((index[c], expansion))
    dim = len(sc.basis)
    ad = {}
    for lab, cols in columns.items():
        den = lcm(*(x.denominator for _, exp in cols for x in exp.values()))
        rows: dict = {}
        for c, expansion in cols:
            for t, x in expansion.items():
                rows.setdefault(index[t], {})[c] = \
                    x.numerator * (den // x.denominator)
        ad[lab] = PolyMatrix.from_term(dim, dim, (), (den, rows))
    violations = bracket_violations(sc.basis, sc.generators, sc.table, ad,
                                    weights=sc.root_weights)
    report = VerificationReport(f"super-Jacobi identity for {sc.spec}")
    if violations:
        (a, b), ((t, c), val) = violations[0]
        report.add_fail(
            f"graded Jacobi on all triples ({len(violations)} violating "
            "generator pairs)",
            f"triple ({a},{b},{sc.basis[c]}) target {sc.basis[t]}", str(val))
    else:
        report.add_pass(f"graded Jacobi on all {dim}^3 triples")
    return report


def grading_report(sc: StructureConstants) -> VerificationReport:
    """Structure constants vanish unless hypercharge grades add up,
    compared as integers over the lcm of the grade denominators.  The
    grade of a label is read off its bracket with y, which must be
    diagonal."""
    report = VerificationReport(f"hypercharge grading for {sc.spec}")
    grades = {}
    for lab in sc.basis:
        expansion = sc.bracket(GenLabel("y"), lab)
        if any(other != lab for other in expansion):
            raise InternalConsistencyError(
                f"[y, {lab}] is not diagonal in the basis")
        grades[lab] = expansion.get(lab, 0)
    den = lcm(*(g.denominator for g in grades.values()))
    grade = {lab: g.numerator * (den // g.denominator)
             for lab, g in grades.items()}
    for (a, b), expansion in sc.table.items():
        total = grade[a] + grade[b]
        for target, coeff in expansion.items():
            if grade[target] != total:
                report.add_fail("grade additivity", f"[{a},{b}] -> {target}",
                                str(coeff))
                return report
    report.add_pass("grade additivity on every nonzero structure constant")
    return report


def bracket_violations(labels: Sequence[GenLabel],
                       generators: Sequence[GenLabel],
                       table: Mapping, targets: Mapping[GenLabel, PolyMatrix],
                       bracket: Callable | None = None,
                       weights: tuple | None = None) -> list:
    """The one relation checker: every ordered pair (a, b) of ``labels``
    with a or b in ``generators`` at which the bracket differs from the
    table's expansion sum_t table[(a, b)][t] * targets[t].

    ``bracket(a, b, pa, pb)``, with pa and pb the parities ``parity_of``
    reads off a and b, gives the bracket as product terms
    (coeff, left, right), e.g. ``sbracket``, so each residual is one
    ``combination`` pass; None stands for the superbracket of the targets
    themselves.  Returns ``[((a, b), (entry, residual)), ...]`` in pair
    order, locating the first nonzero entry of each residual.

    Checking only these pairs gives the verdict of all pairs by a standard
    lemma.  Let rho be a linear map from g to End V, where the table is
    the bracket of g on the basis ``labels`` and satisfies super-Jacobi,
    and let X generate g.  If rho([x, b]) = [rho x, rho b} for every x in
    X and every basis element b, then rho is a representation: the a that
    satisfy the identity for all b form a subalgebra, by super-Jacobi in g
    and in End V, and that subalgebra contains X.  So a caller passes a
    generating set (``StructureConstants.generators``) only for a table
    that satisfies super-Jacobi, and the full ``labels`` otherwise.

    The one exception is rho = ad of the table itself, the super-Jacobi
    check, which needs no Jacobi premise for any bilinear table.  The
    residual of (a, b) has column c equal to J(a, b, c), so the a with
    J(a, ., .) = 0 are those whose ad_a is a graded derivation of the
    bracket.  For two such a1, a2, J(a1, a2, .) = 0 gives
    ad_[a1,a2] = [ad_a1, ad_a2}, and the graded commutator of two graded
    derivations is one: these a form a subalgebra, which contains X.  As
    X generates through iterated table brackets plus its completion, the
    generator pairs give the verdict of all triples.

    With the superbracket of the targets and ``weights``, the table's
    ``StructureConstants.root_weights``, a root-space certificate is
    tried first (``_certified``); where it proves every generator pair,
    no pair residual is formed and the list is empty.  Super-Jacobi
    passes weights; a module check tries the Serre presentation before it
    calls this (``superbracket_violations``), and passes none.  Otherwise,
    and for every other bracket, each pair is computed (``_pairwise``),
    which alone gives violation counts and locators.
    """
    if bracket is None:
        if weights is not None and _certified(labels, generators, table,
                                              targets, weights):
            return []

        def bracket(la, lb, pa, pb):
            return sbracket(pa, pb, targets[la], targets[lb])
    return _pairwise(labels, generators, table, bracket, targets)


def _pairwise(labels, generators, table, bracket, targets) -> list:
    """The violations of ``bracket_violations``, one residual per pair.

    The bracket must be graded-antisymmetric, [b, a] = -(-1)^{|a||b|} [a, b],
    as every matrix superbracket and sum of them is.  Then wherever the
    table is graded-antisymmetric at {a, b} too, the residual of (b, a) is
    -(-1)^{|a||b|} times that of (a, b), so only the pair listed first in
    ``labels`` is computed; elsewhere (b, a) is computed directly.
    """
    violations = []
    located = {}
    generators = set(generators)
    flags = [label in generators for label in labels]
    odd = [parity_of(label) for label in labels]
    for i, la in enumerate(labels):
        for j, lb in enumerate(labels):
            if not (flags[i] or flags[j]):
                continue
            expansion = table.get((la, lb), {})
            sign = 1 if (odd[i] and odd[j]) else -1
            if j < i and _is_mirror(expansion, table.get((lb, la), {}), sign):
                mirror = located.get((lb, la))
                if mirror is not None:
                    pos, val = mirror
                    violations.append(((la, lb), (pos, val * sign)))
                continue
            # the residual negated, table minus bracket: the table's
            # coefficients go in as they are, only the bracket's are negated
            negated = combination(
                [(-c, left, right)
                 for c, left, right in bracket(la, lb, odd[i], odd[j])]
                + [(coeff, targets[t], None)
                   for t, coeff in expansion.items()])
            if not negated.is_zero:
                pos, val = negated.first_nonzero()
                located[(la, lb)] = (pos, -val)
                violations.append(((la, lb), located[(la, lb)]))
    return violations


def _certified(labels, generators, table, targets, weights) -> bool:
    """Whether every generator pair of the superbracket of the targets
    holds, proved by root-space sums; False where a premise or a sum
    fails, which proves nothing.

    The table premises are ``weights`` (``_root_weights``) and the target
    premises are checked by ``_homogeneous``.  Then [rho_h, rho_b] =
    alpha_b(h) rho_b, which is the table's [h, b], so every pair with a
    Cartan label h holds, and each residual D(x, b) of roots x, b lies in
    the block lambda(r) - lambda(c) = alpha_x + alpha_b.

    For each root x in X and each triangular part G, of one parity, the
    residual R = [rho_x, S_G} - sum_t c_t rho_t with S_G = sum_{b in G}
    rho_b and c_t = sum_{b in G} f_xb^t is the sum of the D(x, b) over G.
    The alpha_b of G are distinct, so these lie in disjoint blocks and
    R = 0 iff every D(x, b) = 0.  The pairs (b, x) follow by the graded
    antisymmetry of the table and of the superbracket.
    """
    cartan, _, _, parts = weights
    if not _homogeneous([lab for part in parts for lab in part], targets,
                        weights):
        return False
    roots = [x for x in generators if x not in cartan]
    for part in parts:
        total = combination([(1, targets[b], None) for b in part])
        odd = parity_of(part[0])
        for x in roots:
            coeffs: dict = {}
            for b in part:
                for t, c in table.get((x, b), {}).items():
                    coeffs[t] = coeffs.get(t, 0) + c
            residual = combination(
                sbracket(parity_of(x), odd, targets[x], total)
                + [(-c, targets[t], None) for t, c in coeffs.items() if c])
            if not residual.is_zero:
                return False
        del total                     # before the next part's sum
    return True


def _homogeneous(roots, targets, weights) -> bool:
    """The target premises of ``_certified`` and relations R1 of
    ``_presented``, in O(nnz) and no product: each Cartan target rho_h is
    diagonal, which gives each row r a weight lambda(r), one coordinate
    per Cartan label and pencil monomial; and the target of each label b
    of ``roots`` is homogeneous, rho_b[r, c] != 0 only where lambda(r) -
    lambda(c) = alpha_b, which is zero in the coordinates of nonconstant
    monomials.  Then [rho_h, rho_b] = alpha_b(h) rho_b."""
    cartan, dens, alpha, _ = weights
    columns = []                      # per coordinate, {row: int}
    shifts = {lab: [] for lab in roots}
    for i, (h, den_h) in enumerate(zip(cartan, dens)):
        terms = targets[h].terms
        zero = (0,) * len(targets[h].params)
        for mono in (zero, *(e for e in terms if e != zero)):
            den, rows = terms.get(mono, (1, {}))
            if any(len(row) != 1 or r not in row for r, row in rows.items()):
                return False
            # over lcm(den, den_h), where alpha(h) is an int too
            scale = lcm(den, den_h) if mono == zero else den
            columns.append({r: row[r] * (scale // den)
                            for r, row in rows.items()})
            for lab, vec in shifts.items():
                vec.append(alpha[lab][i] * (scale // den_h)
                           if mono == zero else 0)
    keys, label_keys = _weight_keys(columns, shifts, targets[cartan[0]].rows)
    for lab in roots:
        shift = label_keys[lab]
        for _, rows in targets[lab].terms.values():
            for r, row in rows.items():
                want = keys[r] - shift
                for c in row:
                    if keys[c] != want:
                        return False
    return True


def _weight_keys(columns: Sequence, shifts: Mapping, rows: int) -> tuple:
    """(keys, label_keys): one int per row and per label, such that
    keys[r] - keys[c] == label_keys[b] iff columns[k][r] - columns[k][c]
    == shifts[b][k] for every k, for int columns {row: int} (0 at a row
    left out) and int shift vectors.

    Every |columns[k][r] - columns[k][c] - shifts[b][k]| is at most
    E = max_k (span_k + max_b |shifts[b][k]|), so each vector is read as
    digits in base E + 1: a vector of digits at most E in absolute value
    reads as 0 only if every digit is 0, since the lowest nonzero digit
    would have to be a multiple of the base."""
    bound = 0
    for k, col in enumerate(columns):
        values = [0, *col.values()]
        bound = max(bound, max(values) - min(values)
                    + max((abs(vec[k]) for vec in shifts.values()),
                          default=0))
    base = bound + 1
    keys = [0] * rows
    for k, col in enumerate(columns):
        digit = base ** k
        for r, x in col.items():
            keys[r] += x * digit
    label_keys = {lab: sum(x * base ** k for k, x in enumerate(vec))
                  for lab, vec in shifts.items()}
    return keys, label_keys


def _is_mirror(expansion: Mapping, mirror: Mapping, sign: int) -> bool:
    """expansion == {t: sign * c for t, c in mirror.items()} for rational
    coefficients, compared in lowest terms without forming the products."""
    if len(expansion) != len(mirror):
        return False
    for t, c in mirror.items():
        x = expansion.get(t)
        if (x is None or x.denominator != c.denominator
                or x.numerator != sign * c.numerator):
            return False
    return True


def violations_report(title: str, name: str, labels: Sequence[GenLabel],
                      generators: Sequence[GenLabel],
                      violations: list,
                      premise: str | None = None) -> VerificationReport:
    """One check item: the pairs checked, or the count of violating pairs
    and the first locator.  A check on generator pairs implies all pairs,
    or, where the lemma of ``bracket_violations`` needs a premise that this
    check does not compute, implies them given that premise."""
    report = VerificationReport(title)
    n = len(labels)
    checked = n * n - (n - len(set(generators))) ** 2
    if checked == n * n:
        kind, scope = "pairs", f"all {n}^2 pairs"
    else:
        kind = "generator pairs"
        scope = f"all {checked} generator pairs" + (
            f" (implies all {n}^2 pairs)" if premise is None
            else f"; all {n}^2 pairs follow given {premise}")
    if violations:
        (la, lb), (pos, val) = violations[0]
        report.add_fail(f"{name} ({len(violations)} violating {kind})",
                        f"pair ({la},{lb}) entry {pos}", str(val))
    else:
        report.add_pass(f"{name} on {scope}")
    return report


# -- the Serre presentation ---------------------------------------------------

def _presentation(sc: StructureConstants) -> tuple:
    """The presentation of the table sc that ``structure_constants``
    builds for its spec.

    For m != n, gl/sl(m|n) is presented on the Chevalley set of its
    distinguished Dynkin diagram, the Cartan labels, the simple raising
    labels e_i and u_1 and the simple lowering labels f_i and v_1, by the
    Cartan relations (R1), [x, y} = sum_t f_xy^t t for simple raising x
    and simple lowering y (R2) and the Serre relations (R3) (V. G. Kac,
    Adv. Math. 26, 1977; H. Yamane, Publ. RIMS 30, 1994; R. B. Zhang,
    "Serre presentations of Lie superalgebras", 2014); gl adds z0, which
    R1 makes central.  Every other root label t is reached by a chain,
    t = (1/c) [x, s} with x simple and s reached before it (R4).  So the
    presentation is (weights, simple, cartan_sums, serre, chains): the
    table's ``root_weights`` for R1; the simple labels per side, (raising,
    lowering); per simple raising x, (x, ((t, sum_y f_xy^t), ...)); per
    side, the Serre relations (``_serre_relations``); and per side, the
    chains (``_chains``).
    """
    raising = tuple(lab for lab in sc.basis
                    if lab.kind == "e" or lab == GenLabel("u", 1))
    lowering = tuple(lab for lab in sc.basis
                     if lab.kind == "f" or lab == GenLabel("v", 1))
    cartan_sums = []
    for x in raising:
        sums: dict = {}
        for y in lowering:
            for t, c in sc.bracket(x, y).items():
                sums[t] = sums.get(t, 0) + c
        cartan_sums.append((x, tuple((t, c) for t, c in sums.items() if c)))
    sides = (raising, lowering)
    return (sc.root_weights, sides, tuple(cartan_sums),
            tuple(_serre_relations(sc, side) for side in sides),
            tuple(_chains(sc, side) for side in sides))


def _serre_relations(sc: StructureConstants, simple: tuple) -> tuple:
    """The Serre relations of one side as bracket trees (left, right), a
    leaf being a label: [a, b} for nonadjacent nodes, [x, [a, b]], that is
    (ad x)^2 of its neighbour, for each even x of an edge (a, b), and for
    an odd x, [x, x} and, where it has two neighbours a and b,
    [x, [a, [b, x]]].  Nodes are adjacent where the table brackets them
    to nonzero, and an inner tree (a, b) lists a before b in ``simple``,
    so the relations share it."""
    relations = []
    for i, a in enumerate(simple):
        for b in simple[i + 1:]:
            if not sc.bracket(a, b):
                relations.append((a, b))
                continue
            relations += [(x, (a, b)) for x in (a, b) if not parity_of(x)]
    for x in simple:
        if parity_of(x):
            relations.append((x, x))
            neighbours = [a for a in simple if a != x and sc.bracket(a, x)]
            if len(neighbours) == 2:
                a, b = neighbours
                relations.append((x, (a, (b, x))))
    return tuple(relations)


def _chains(sc: StructureConstants, simple: tuple) -> dict:
    """t -> ((x, s, c), ...) for every label t outside ``simple`` that a
    bracket [x, s] = c t reaches, with x in ``simple`` and s in ``simple``
    or reached before t; the pairs are listed in the order their s is
    reached."""
    chains: dict = {}
    reached = list(simple)
    for s in reached:                 # grows while it is walked
        for x in simple:
            expansion = sc.bracket(x, s)
            if len(expansion) != 1:
                continue
            (t, c), = expansion.items()
            if t in simple:
                continue
            if t not in chains:
                reached.append(t)
            chains.setdefault(t, []).append((x, s, c))
    return {t: tuple(pairs) for t, pairs in chains.items()}


def _presented(targets: Mapping[GenLabel, PolyMatrix],
               sc: StructureConstants) -> bool:
    """Whether the targets satisfy the relations of ``sc.presentation``,
    which proves every pair of the superbracket table; False where a
    premise or a residual fails, which proves nothing.

    R1 is ``_homogeneous`` on the Chevalley set and the other given
    targets.  By the presentation theorem, R1-R3 make the Chevalley
    targets the images of a representation rho~ of the algebra.  R4 ties
    each given target t outside the Chevalley set to its chain:
    rho_t = (1/c) [rho_x, rho_s}, with s tied before it, so rho_t =
    rho~(t).  A label that is not given is its recipe's bracket, which is
    rho~ of it too.  So the targets extended by their recipes are rho~,
    a representation, and every pair holds.  Each residual sums relations
    of pairwise distinct weights: given R1, a relation of weight mu lies
    in the block lambda(r) - lambda(c) = mu, so the sum is zero iff each
    relation holds.
    """
    presentation = sc.presentation
    if presentation is None or any(lab not in targets for lab in sc.basis
                                   if lab not in sc.recipes):
        return False
    weights, simple, _, _, chains = presentation
    reached = set(weights[0]).union(*simple)
    ties = [_ties(targets, side, reached) for side in chains]
    if None in ties:
        return False
    roots = [lab for lab in sc.basis
             if lab in reached and lab.kind not in _CARTAN]
    if not _homogeneous(roots, targets, weights):
        return False
    return all(residual.is_zero
               for residual in _residuals(targets, presentation, ties))


def _ties(targets, chains: Mapping, reached: set) -> list | None:
    """[(t, x, s, c)] for each given target t of ``chains``, where (x, s,
    c) is its first chain whose s is reached, t being reached in turn;
    None where a given target reaches none."""
    ties = []
    pending = [t for t in chains if t in targets]
    while pending:
        left = []
        for t in pending:
            tie = next(((x, s, c) for x, s, c in chains[t] if s in reached),
                       None)
            if tie is None:
                left.append(t)
            else:
                ties.append((t, *tie))
                reached.add(t)
        if len(left) == len(pending):
            return None
        pending = left
    return ties


def _residuals(targets, presentation: tuple, ties: list):
    """The residuals of R2, R3 and R4, one ``combination`` each, in turn.

    R2, per simple raising x: [rho_x, S_0} + [rho_x, S_1} - sum_t c_t
    rho_t, with S_p the sum of the simple lowering targets of parity p and
    c_t = sum_y f_xy^t.  R3, per side: the sum of its Serre relations,
    each inner bracket formed once.  R4, per side: the sum over its ties
    of c rho_t - [rho_x, rho_s}, where an inner bracket of R3, [rho_x,
    rho_s} or [rho_s, rho_x} = -(-1)^{|x||s|} [rho_x, rho_s}, serves."""
    _, (_, lowering), cartan_sums, serre, _ = presentation
    sums = []
    for odd in (0, 1):
        group = [(1, targets[y], None) for y in lowering
                 if parity_of(y) == odd]
        if group:
            sums.append((odd, combination(group)))
    for x, cartan_part in cartan_sums:
        yield combination(
            [term for odd, total in sums
             for term in sbracket(parity_of(x), odd, targets[x], total)]
            + [(-c, targets[t], None) for t, c in cartan_part])
    inner: dict = {}                  # bracket tree -> its matrix
    for relations in serre:
        yield combination([term for tree in relations
                           for term in _tree_terms(tree, targets, inner)])
    for side in ties:
        if side:
            yield combination([
                term for t, x, s, c in side
                for term in [(c, targets[t], None)]
                + _tie_terms(x, s, targets, inner)])


def _tie_terms(x: GenLabel, s: GenLabel, targets, inner: dict) -> list:
    """-[rho_x, rho_s} as ``combination`` terms, read off an inner bracket
    where one holds it."""
    if (x, s) in inner:
        return [(-1, inner[x, s], None)]
    both_odd = parity_of(x) and parity_of(s)
    if (s, x) in inner:
        return [(-1 if both_odd else 1, inner[s, x], None)]
    return [(-k, left, right) for k, left, right
            in sbracket(parity_of(x), parity_of(s), targets[x], targets[s])]


def _tree_terms(tree: tuple, targets, inner: dict) -> list:
    """The ``sbracket`` product terms of a bracket tree (left, right),
    each operand a target or an inner tree's matrix, formed once."""
    operands = []
    for node in tree:
        if node.__class__ is not GenLabel:
            if node not in inner:
                inner[node] = combination(_tree_terms(node, targets, inner))
            operands.append(inner[node])
        else:
            operands.append(targets[node])
    left, right = tree
    return sbracket(_tree_parity(left), _tree_parity(right), *operands)


def _tree_parity(node) -> int:
    if node.__class__ is GenLabel:
        return parity_of(node)
    return sum(map(_tree_parity, node)) % 2


def superbracket_violations(matrices: Mapping[GenLabel, PolyMatrix],
                            sc: StructureConstants) -> list:
    """Violating pairs of the superbracket table for representation
    matrices; nonsimple root vectors not given are derived from their
    recipes.

    The relations of the table's Serre presentation are tried first
    (``_presented``): where they hold, every pair holds, and the list is
    empty with no pair residual and no nonsimple matrix formed.
    Otherwise, and where a premise fails, the pairwise loop of
    ``bracket_violations`` runs on the extended matrices, which alone
    gives violation counts and locators."""
    if _presented(matrices, sc):
        return []
    return bracket_violations(sc.basis, sc.generators, sc.table,
                              extend_matrices(matrices, sc.recipes))


def check_super_relations(matrices: Mapping[GenLabel, PolyMatrix],
                          sc: StructureConstants,
                          title: str = "super-relations") -> VerificationReport:
    """Exact polynomial identity check of all superbrackets against the table.

    ``matrices`` must cover the generator surface (h/e/f simple, y, z0 for gl,
    all u and v); a nonsimple root vector not given is its recipe's bracket.
    ``superbracket_violations`` proves a passing module on the relations of
    the table's Serre presentation and otherwise checks every ordered pair
    of the full basis that contains a label of ``sc.generators``; either
    gives the verdict of all pairs.  The report names the generator pairs,
    whose verdict it is.
    """
    missing = [lab for lab in sc.basis
               if lab not in matrices and lab not in sc.recipes]
    if missing:
        report = VerificationReport(title)
        report.add_fail("generator coverage", f"missing {missing[0]}")
        return report
    dims = {(mat.rows, mat.cols) for mat in matrices.values()}
    if len(dims) != 1 or any(r != c for r, c in dims):
        raise InputError(f"representation matrices have mixed shapes {dims}")
    return violations_report(title, "superbracket table reproduced", sc.basis,
                             sc.generators,
                             superbracket_violations(matrices, sc))


# -- weights from Dynkin labels ---------------------------------------------

def validate_even_labels(spec: SuperAlgebraSpec, a: Sequence[int]):
    if len(a) != spec.rank:
        raise InputError(
            f"{spec} expects {spec.rank} even Dynkin labels, got {len(a)}")
    for value in a:
        if not isinstance(value, int) or value < 0:
            raise InputError(
                f"even Dynkin labels must be nonnegative integers, got {a}")


def module_params(spec: SuperAlgebraSpec) -> tuple:
    return ("b", "c") if spec.flavor == "gl" else ("b",)


def _highest_weight(spec: SuperAlgebraSpec, a: Sequence[int]) -> tuple:
    """The highest weight on ints, (den, const, bs, cs): coordinate k is
    (const[k] + bs[k] b + cs[k] c) / den, for valid even labels a.

    Gauge: for sl the coordinates are fixed by lambda_m = 0 (weights are only
    defined up to the supertrace direction, which pairs to zero with every
    root).  For gl the eps coordinates are shifted by t and the delta ones
    by -t so that they add up to the central charge c,
    t = (c - S - n b) / (m - n) with S + n b the sum before the shift.
    """
    validate_even_labels(spec, a)
    m, n = spec.m, spec.n
    const = [0] * (m + n)
    for i in range(m - 2, -1, -1):
        const[i] = const[i + 1] + a[i]
    for j in range(1, n):
        const[m + j] = const[m + j - 1] - a[m + j - 2]
    if spec.flavor == "sl":
        return 1, const, [0] * m + [1] * n, [0] * (m + n)
    if m == n:
        raise InputError(
            "gl(n|n) highest weights are not determined by (a, b, c); "
            "the odd label is not independent of the central charge")
    d, total = m - n, sum(const)
    return (d, [d * x - total if k < m else d * x + total
                for k, x in enumerate(const)],
            [-n] * m + [m] * n, [1] * m + [-1] * n)


def _affine_polys(spec: SuperAlgebraSpec, den: int, columns: Sequence) -> list:
    """The ParamPolys (const[i] + bs[i] b + cs[i] c) / den over the module's
    params for the columns (const, bs, cs); cs is read only for gl."""
    params = module_params(spec)
    monomials = [(0,) * len(params)] + [
        tuple(int(p == name) for p in params) for name in params]
    return [ParamPoly._of(params, {mono: Fraction(x, den)
                                   for mono, x in zip(monomials, nums) if x})
            for nums in zip(*columns[:len(monomials)])]


def weight_from_labels(datum: RootDatum, a: Sequence[int]) -> tuple:
    """Epsilon/delta coordinates of the highest weight, linear in b (and c);
    see ``_highest_weight`` for the gauge."""
    den, *columns = _highest_weight(datum.spec, a)
    return tuple(_affine_polys(datum.spec, den, columns))


def typicality_factors(datum: RootDatum, a: Sequence[int]) -> list:
    """The P linear polynomials <Lambda + rho | beta_i> in the odd label b,
    paired on ints over the denominators of Lambda and rho."""
    spec = datum.spec
    den, const, bs, cs = _highest_weight(spec, a)
    rden = lcm(*(r.denominator for r in datum.rho))
    shifted = [x * rden + r.numerator * (rden // r.denominator) * den
               for x, r in zip(const, datum.rho)]
    pairings = ([], [], [])
    for beta in datum.odd_positive_roots:
        signed = [x if k < spec.m else -x for k, x in enumerate(beta)]
        for column, vec, scale in zip(pairings, (shifted, bs, cs),
                                      (1, rden, rden)):
            column.append(scale * sum(v * x for v, x in zip(vec, signed) if x))
    return _affine_polys(spec, den * rden, pairings)
