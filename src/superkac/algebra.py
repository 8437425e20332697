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
  inverse, from one RREF of [A | I] per table (``exact.rref``).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, total_ordering
from math import lcm

from superkac.exact import (ParamPoly, PolyMatrix, combination,
                           echelon_insert, rref)
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


Weight = tuple  # length m+n, Fraction or ParamPoly entries


def weight_add(w1: Weight, w2: Weight) -> Weight:
    return tuple(a + b for a, b in zip(w1, w2))

def weight_sub(w1: Weight, w2: Weight) -> Weight:
    return tuple(a - b for a, b in zip(w1, w2))

def weight_scale(w: Weight, s) -> Weight:
    return tuple(a * s for a in w)


class RootDatum(Record):
    """Distinguished-basis root data for gl/sl(m|n)."""

    spec: SuperAlgebraSpec
    simple_even_roots: tuple          # r weights
    even_positive_roots: tuple        # all weights, simple ones first per height
    even_root_pairs: tuple            # matching (a, b) 0-based matrix positions
    odd_positive_roots: tuple         # P weights, beta_1 = eps_m - delta_1 first
    odd_pairs: tuple                  # matching (i, j), i in 0..m-1, j in 0..n-1
    cartan_matrix: tuple              # r x r integer tuples
    rho0: Weight
    rho1: Weight
    rho: Weight

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def odd_count(self) -> int:
        return self.spec.odd_count

    def bilinear(self, w1: Weight, w2: Weight):
        """Signature (+m, -n) diagonal pairing; accepts symbolic coordinates."""
        m = self.spec.m
        total = None
        for idx, (a, b) in enumerate(zip(w1, w2)):
            term = a * b if idx < m else -(a * b)
            total = term if total is None else total + term
        return total


def _eps(spec: SuperAlgebraSpec, i: int) -> Weight:
    w = [Fraction(0)] * spec.dim_fund
    w[i] = Fraction(1)
    return tuple(w)

def _delta(spec: SuperAlgebraSpec, j: int) -> Weight:
    w = [Fraction(0)] * spec.dim_fund
    w[spec.m + j] = Fraction(1)
    return tuple(w)


def integer_roots(roots) -> list:
    """Roots as int tuples; a coordinate that is not an integer is an
    InternalConsistencyError, never truncated."""
    out = []
    for root in roots:
        if any(x.denominator != 1 for x in root):
            raise InternalConsistencyError(
                f"root {tuple(map(str, root))} has a coordinate that is not "
                "an integer")
        out.append(tuple(int(x) for x in root))
    return out


def build_root_datum(spec: SuperAlgebraSpec) -> RootDatum:
    m, n = spec.m, spec.n
    zero = tuple(Fraction(0) for _ in range(m + n))

    simple = []
    for i in range(m - 1):
        simple.append(weight_sub(_eps(spec, i), _eps(spec, i + 1)))
    for j in range(n - 1):
        simple.append(weight_sub(_delta(spec, j), _delta(spec, j + 1)))

    # Even positive roots per block, ordered by height then start index, so a
    # nonsimple vector is always a commutator of earlier ones.
    even_roots, even_pairs = [], []
    for base, size in ((0, m), (m, n)):
        for height in range(1, size):
            for a in range(size - height):
                lo, hi = base + a, base + a + height
                root = [Fraction(0)] * (m + n)
                root[lo], root[hi] = Fraction(1), Fraction(-1)
                even_roots.append(tuple(root))
                even_pairs.append((lo, hi))

    odd_roots, odd_pairs = [], []
    for i in range(m - 1, -1, -1):
        for j in range(n):
            odd_roots.append(weight_sub(_eps(spec, i), _delta(spec, j)))
            odd_pairs.append((i, j))

    cartan = []
    r = spec.rank
    for i in range(r):
        row = []
        for j in range(r):
            same_block = (i < m - 1) == (j < m - 1)
            if not same_block:
                row.append(0)
            elif i == j:
                row.append(2)
            elif abs(i - j) == 1:
                row.append(-1)
            else:
                row.append(0)
        cartan.append(tuple(row))

    half = Fraction(1, 2)
    rho0 = zero
    for root in even_roots:
        rho0 = weight_add(rho0, weight_scale(root, half))
    rho1 = zero
    for root in odd_roots:
        rho1 = weight_add(rho1, weight_scale(root, half))
    rho = weight_sub(rho0, rho1)

    return RootDatum(
        spec=spec,
        simple_even_roots=tuple(simple),
        even_positive_roots=tuple(even_roots),
        even_root_pairs=tuple(even_pairs),
        odd_positive_roots=tuple(odd_roots),
        odd_pairs=tuple(odd_pairs),
        cartan_matrix=tuple(cartan),
        rho0=rho0, rho1=rho1, rho=rho,
    )


# -- fundamental representation --------------------------------------------

def _unit_matrix(dim: int, r: int, c: int, value=1) -> PolyMatrix:
    return PolyMatrix(dim, dim, (), {(r, c): ParamPoly.const((), value)})


class FundamentalRep(Record):
    spec: SuperAlgebraSpec
    datum: RootDatum
    matrices: dict            # GenLabel -> PolyMatrix over ()

    @property
    def dim(self) -> int:
        return self.spec.dim_fund


def hypercharge_diagonal(spec: SuperAlgebraSpec) -> list:
    """Diagonal of y: [y, u] = u exactly; supertraceless whenever m != n."""
    m, n = spec.m, spec.n
    if m != n:
        top = Fraction(n, n - m)
        bot = Fraction(m, n - m)
    else:
        top, bot = Fraction(1, 2), Fraction(-1, 2)
    return [top] * m + [bot] * n


def build_fundamental_rep(spec: SuperAlgebraSpec) -> FundamentalRep:
    datum = build_root_datum(spec)
    m, n, dim = spec.m, spec.n, spec.dim_fund
    mats: dict = {}

    for i in range(1, spec.rank + 1):
        if i <= m - 1:
            a = i - 1
        else:
            a = m + (i - m)          # first delta slot of alpha_i
        mats[GenLabel("e", i)] = _unit_matrix(dim, a, a + 1)
        mats[GenLabel("f", i)] = _unit_matrix(dim, a + 1, a)
        mats[GenLabel("h", i)] = PolyMatrix(dim, dim, (), {
            (a, a): ParamPoly.const((), 1),
            (a + 1, a + 1): ParamPoly.const((), -1)})

    ydiag = hypercharge_diagonal(spec)
    mats[GenLabel("y")] = PolyMatrix(dim, dim, (), {
        (i, i): ParamPoly.const((), ydiag[i]) for i in range(dim)})
    if spec.flavor == "gl":
        mats[GenLabel("z0")] = PolyMatrix.identity(dim, ())

    for idx, (i, j) in enumerate(datum.odd_pairs, start=1):
        mats[GenLabel("u", idx)] = _unit_matrix(dim, i, m + j)
        mats[GenLabel("v", idx)] = _unit_matrix(dim, m + j, i)

    return FundamentalRep(spec=spec, datum=datum, matrices=mats)


def supertrace(spec: SuperAlgebraSpec, mat: PolyMatrix):
    total = ParamPoly.zero(mat.params)
    for a in range(spec.dim_fund):
        val = mat.entry(a, a)
        total = total + val if a < spec.m else total - val
    return total


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
    parity: dict                      # GenLabel -> 0 | 1
    grade: dict                       # GenLabel -> hypercharge grade (Fraction)
    fundamental: dict                 # GenLabel -> PolyMatrix (parity-faithful source)
    recipes: dict                     # nonsimple GenLabel -> (left, right, coeff)
    table: dict                       # (GenLabel, GenLabel) -> {GenLabel: Fraction}
    k: Fraction                       # y coefficient of {u_i, v_i}
    d: dict                           # (i, j) -> expansion dict of {u_i, v_j}

    def bracket(self, a: GenLabel, b: GenLabel) -> dict:
        return self.table.get((a, b), {})

    @cached_property
    def generators(self) -> tuple:
        """``generating_set(self)``, computed once."""
        return generating_set(self)


def generating_set(sc: StructureConstants) -> tuple:
    """A set X of basis labels that generates the table's algebra.

    The seed is the simple raising e_i and u_1 and every label whose
    brackets with the simple lowering f_i and v_1 vanish, the lowest-
    weight vectors of ad: e_i, u_1 and v_P for sl, as g = U(n+) f_theta
    (Kac, Adv. Math. 26, 1977), z0 too for gl.  Its iterated brackets grow an
    echelon form over basis positions (``exact.echelon_insert``), and
    every label still outside the span is added, so X generates
    whatever the seed.  X is listed in basis order.
    """
    lowering = [lab for lab in sc.basis
                if lab.kind == "f" or lab == GenLabel("v", 1)]
    seed = [lab for lab in sc.basis
            if lab.kind == "e" or lab == GenLabel("u", 1)
            or not any(sc.bracket(x, lab) for x in lowering)]
    echelon: dict = {}                # over basis positions
    order = {lab: pos for pos, lab in enumerate(sc.basis)}
    queue = [{order[lab]: 1} for lab in seed]
    while queue:
        vec = echelon_insert(echelon, queue.pop())
        if vec is None:
            continue
        for x in seed:
            image: dict = {}
            for pos, coeff in vec.items():
                for t, c in sc.bracket(x, sc.basis[pos]).items():
                    image[order[t]] = image.get(order[t], 0) + coeff * c
            queue.append(image)
    completion = [lab for lab in sc.basis
                  if echelon_insert(echelon, {order[lab]: 1}) is not None]
    return tuple(lab for lab in sc.basis
                 if lab in completion or lab in seed)


def _full_basis(spec: SuperAlgebraSpec, datum: RootDatum):
    """Ordered full basis with bracket recipes for the nonsimple root vectors.

    A root pair (a, b) of height one is a simple generator; taller vectors are
    defined recursively by E_(a,b) = [E_(a,a+1), E_(a+1,b)] and
    F_(a,b) = [F_(a+1,b), F_(a,a+1)], each with coefficient 1.
    """
    pair_pos = {pair: t for t, pair in enumerate(datum.even_root_pairs)}
    simple_pos = {}                   # (a,b) height one -> simple index
    idx = 1
    for a in range(spec.m - 1):
        simple_pos[(a, a + 1)] = idx
        idx += 1
    for j in range(spec.n - 1):
        simple_pos[(spec.m + j, spec.m + j + 1)] = idx
        idx += 1

    def raise_label(pair):
        if pair in simple_pos:
            return GenLabel("e", simple_pos[pair])
        return GenLabel("E", pair_pos[pair] + 1)

    def lower_label(pair):
        if pair in simple_pos:
            return GenLabel("f", simple_pos[pair])
        return GenLabel("F", pair_pos[pair] + 1)

    basis = [GenLabel("h", i) for i in range(1, spec.rank + 1)]
    basis.append(GenLabel("y"))
    if spec.flavor == "gl":
        basis.append(GenLabel("z0"))

    recipes = {}
    raising, lowering = [], []
    for pair in datum.even_root_pairs:
        a, b = pair
        e_lab, f_lab = raise_label(pair), lower_label(pair)
        raising.append(e_lab)
        lowering.append(f_lab)
        if b - a > 1:
            recipes[e_lab] = (raise_label((a, a + 1)), raise_label((a + 1, b)),
                              Fraction(1))
            recipes[f_lab] = (lower_label((a + 1, b)), lower_label((a, a + 1)),
                              Fraction(1))
    basis += raising + lowering
    basis += [GenLabel("u", i) for i in range(1, spec.odd_count + 1)]
    basis += [GenLabel("v", i) for i in range(1, spec.odd_count + 1)]
    return basis, recipes


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
        left, right, coeff = recipes[label]
        ml = _ensure_matrix(left, out, recipes)
        mr = _ensure_matrix(right, out, recipes)
        out[label] = combination([(coeff * c, a, b)
                                  for c, a, b in sbracket(0, 0, ml, mr)])
    return out[label]


def structure_constants(rep: FundamentalRep) -> StructureConstants:
    """The superbracket table of the fundamental representation.

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
    basis, recipes = _full_basis(spec, datum)
    mats = extend_matrices(rep.matrices, recipes)
    parity = {lab: parity_of(lab) for lab in basis}
    dim = spec.dim_fund

    roots = []                        # (position, r, c, numerator, denominator)
    slots = {}                        # (r, c) off the diagonal -> its root
    cartan = []                       # (position, {i: numerator}, denominator)
    cartan_rows = [{} for _ in range(dim)]  # row i of A = [Cartan diagonals]
    for pos, lab in enumerate(basis):
        entries = mats[lab].rational_entries()
        if all(r == c for r, c in entries):
            den = lcm(*(x.denominator for x in entries.values()))
            for (i, _), x in entries.items():
                cartan_rows[i][len(cartan)] = x
            cartan.append((pos, {i: x.numerator * (den // x.denominator)
                                 for (i, _), x in entries.items()}, den))
            continue
        if len(entries) != 1:
            raise InternalConsistencyError(
                f"{lab} is neither diagonal nor one off-diagonal entry")
        (slot, x), = entries.items()
        if slot in slots:
            raise InternalConsistencyError(
                f"{lab} shares the entry {slot} with {basis[slots[slot][0]]}")
        slots[slot] = (pos, *slot, x.numerator, x.denominator)
        roots.append(slots[slot])
    width = len(cartan)
    # the RREF of [A | I] is [I | L] over [0 | N]: L A = I and N A = 0
    pivots, reduced = rref({**row, width + i: 1}
                           for i, row in enumerate(cartan_rows))
    if pivots[:width] != list(range(width)):
        raise InternalConsistencyError("the Cartan labels are linearly dependent")

    def integer_rows(rows) -> tuple:
        """(den, [{i: int}]): the I part of the rows over one denominator."""
        den = lcm(*(x.denominator for row in rows for x in row.values()))
        return den, [{c - width: x.numerator * (den // x.denominator)
                      for c, x in row.items() if c >= width} for row in rows]

    scale, left = integer_rows(reduced[:width])
    _, annihilator = integer_rows(reduced[width:])

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
        both None where the bracket leaves the basis."""
        if terms is None:
            brackets[i][j] = brackets[j][i] = None
            return
        for row, col, sign in ((i, j, 1), (j, i, s)):
            expansion = brackets[row][col] = {}
            for t, num, den in terms:
                key = (sign * num, den)
                if key not in fractions:
                    fractions[key] = Fraction(*key)
                expansion[t] = fractions[key]

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
    odd = [parity[lab] for lab in basis]
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
            table[(la, basis[j])] = {basis[t]: v for t, v in row[j].items()}

    ylab = GenLabel("y")
    grade = {}
    for lab in basis:
        exp = table.get((ylab, lab), {})
        if any(other != lab for other in exp):
            raise InternalConsistencyError(f"[y, {lab}] is not diagonal in the basis")
        grade[lab] = exp.get(lab, Fraction(0))

    d = {}
    k = None
    P = spec.odd_count
    for i in range(1, P + 1):
        for j in range(1, P + 1):
            exp = table.get((GenLabel("u", i), GenLabel("v", j)), {})
            d[(i, j)] = exp
            ycoeff = exp.get(ylab, Fraction(0))
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

    return StructureConstants(
        spec=spec, datum=datum, basis=tuple(basis), parity=parity, grade=grade,
        fundamental=mats, recipes=recipes, table=table, k=k, d=d)


def super_jacobi_report(sc: StructureConstants) -> VerificationReport:
    """Exact graded Jacobi identity with the verdict of every basis triple,
    checked as "ad is a representation" by the relation checker on the
    pairs that contain a label of ``sc.generators``.

    With ad_a[t, c] = table[(a, c)][t], column c of
    [ad_a, ad_b} - sum_t f_ab^t ad_t is the Jacobi defect J(a, b, c) =
    [a,[b,c]] - (-1)^{|a||b|}[b,[a,c]] - [[a,b],c].  The generator pairs
    decide every triple with no Jacobi premise (see ``bracket_violations``,
    the ad case), so a defect anywhere fails the check.
    """
    index = {lab: i for i, lab in enumerate(sc.basis)}
    entries = {lab: {} for lab in sc.basis}
    for (a, c), expansion in sc.table.items():
        for t, coeff in expansion.items():
            entries[a][(index[t], index[c])] = coeff
    dim = len(sc.basis)
    ad = {lab: PolyMatrix(dim, dim, (), entries[lab]) for lab in sc.basis}
    violations = bracket_violations(
        sc.basis, sc.generators, sc.parity, sc.table,
        lambda la, lb, pa, pb: sbracket(pa, pb, ad[la], ad[lb]), ad)
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
    """Structure constants vanish unless hypercharge grades add up."""
    report = VerificationReport(f"hypercharge grading for {sc.spec}")
    for (a, b), expansion in sc.table.items():
        total = sc.grade[a] + sc.grade[b]
        for target, coeff in expansion.items():
            if sc.grade[target] != total:
                report.add_fail("grade additivity", f"[{a},{b}] -> {target}",
                                str(coeff))
                return report
    report.add_pass("grade additivity on every nonzero structure constant")
    return report


def bracket_violations(labels: Sequence[GenLabel],
                       generators: Sequence[GenLabel], parity: Mapping,
                       table: Mapping, bracket: Callable,
                       targets: Mapping[GenLabel, PolyMatrix]) -> list:
    """The one relation checker: every ordered pair (a, b) of ``labels``
    with a or b in ``generators`` at which the bracket differs from the
    table's expansion sum_t table[(a, b)][t] * targets[t].

    ``bracket(a, b, parity[a], parity[b])`` gives the bracket as product
    terms (coeff, left, right), e.g. ``sbracket``, so each residual is one
    ``combination`` pass.  Returns ``[((a, b), (entry, residual)), ...]``
    in pair order, locating the first nonzero entry of each residual.

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

    The bracket must be graded-antisymmetric, [b, a] = -(-1)^{|a||b|} [a, b],
    as every matrix superbracket and sum of them is.  Then wherever the
    table is graded-antisymmetric at {a, b} too, the residual of (b, a) is
    -(-1)^{|a||b|} times that of (a, b), so only the pair listed first in
    ``labels`` is computed; elsewhere (b, a) is computed directly.
    """
    violations = []
    located = {}
    order = {label: pos for pos, label in enumerate(labels)}
    generators = set(generators)
    for la, lb in itertools.product(labels, repeat=2):
        if la not in generators and lb not in generators:
            continue
        expansion = table.get((la, lb), {})
        sign = 1 if (parity[la] and parity[lb]) else -1
        if order[lb] < order[la] and expansion == {
                t: sign * c for t, c in table.get((lb, la), {}).items()}:
            mirror = located.get((lb, la))
            if mirror is not None:
                pos, val = mirror
                violations.append(((la, lb), (pos, val * sign)))
            continue
        residual = combination(
            bracket(la, lb, parity[la], parity[lb])
            + [(-coeff, targets[t], None) for t, coeff in expansion.items()])
        if not residual.is_zero:
            located[(la, lb)] = residual.first_nonzero()
            violations.append(((la, lb), located[(la, lb)]))
    return violations


def violations_report(title: str, name: str, labels: Sequence[GenLabel],
                      generators: Sequence[GenLabel],
                      violations: list) -> VerificationReport:
    """One check item: the pairs checked, or the count of violating pairs
    and the first locator."""
    report = VerificationReport(title)
    n = len(labels)
    checked = n * n - (n - len(set(generators))) ** 2
    if checked == n * n:
        kind, scope = "pairs", f"all {n}^2 pairs"
    else:
        kind = "generator pairs"
        scope = f"all {checked} generator pairs (implies all {n}^2 pairs)"
    if violations:
        (la, lb), (pos, val) = violations[0]
        report.add_fail(f"{name} ({len(violations)} violating {kind})",
                        f"pair ({la},{lb}) entry {pos}", str(val))
    else:
        report.add_pass(f"{name} on {scope}")
    return report


def superbracket_violations(matrices: Mapping[GenLabel, PolyMatrix],
                            sc: StructureConstants) -> list:
    """Violating pairs of the superbracket table for representation
    matrices; nonsimple root vectors are derived from their recipes."""
    mats = extend_matrices(matrices, sc.recipes)
    return bracket_violations(
        sc.basis, sc.generators, sc.parity, sc.table,
        lambda la, lb, pa, pb: sbracket(pa, pb, mats[la], mats[lb]), mats)


def check_super_relations(matrices: Mapping[GenLabel, PolyMatrix],
                          sc: StructureConstants,
                          title: str = "super-relations") -> VerificationReport:
    """Exact polynomial identity check of all superbrackets against the table.

    ``matrices`` must cover the generator surface (h/e/f simple, y, z0 for gl,
    all u and v); nonsimple root vectors are derived from their recipes before
    checking every ordered pair of the full basis that contains a label of
    ``sc.generators``, which gives the verdict of all pairs.
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


def weight_from_labels(datum: RootDatum, a: Sequence[int],
                       params: Sequence[str] | None = None) -> tuple:
    """Epsilon/delta coordinates of the highest weight, linear in b (and c).

    Gauge: for sl the coordinates are fixed by lambda_m = 0 (weights are only
    defined up to the supertrace direction, which pairs to zero with every
    root).  For gl the supertrace direction is fixed by the central charge c.
    """
    spec = datum.spec
    validate_even_labels(spec, a)
    params = tuple(params) if params is not None else module_params(spec)
    m, n = spec.m, spec.n
    b = ParamPoly.var(params, "b")
    zero = ParamPoly.zero(params)

    lam = [zero] * m
    for i in range(m - 2, -1, -1):
        lam[i] = lam[i + 1] + a[i]
    cs = [zero] * n
    cs[0] = b - lam[m - 1]
    for j in range(1, n):
        cs[j] = cs[j - 1] - a[m - 1 + j - 1]

    coords = lam + cs
    if spec.flavor == "gl":
        if m == n:
            raise InputError(
                "gl(n|n) highest weights are not determined by (a, b, c); "
                "the odd label is not independent of the central charge")
        c = ParamPoly.var(params, "c")
        total = zero
        for i, coord in enumerate(coords):
            total = total + coord
        t = (c - total) * Fraction(1, m - n)
        coords = [coord + t if i < m else coord - t
                  for i, coord in enumerate(coords)]
    return tuple(coords)


def weight_eval(coords: Sequence, diagonal: Sequence[Fraction]):
    """Evaluate a weight on a diagonal Cartan element."""
    total = None
    for coord, d in zip(coords, diagonal):
        term = coord * d
        total = term if total is None else total + term
    return total


def typicality_factors(datum: RootDatum, a: Sequence[int],
                       params: Sequence[str] | None = None) -> list:
    """The P linear polynomials <Lambda + rho | beta_i> in the odd label b."""
    coords = weight_from_labels(datum, a, params)
    shifted = tuple(coord + r for coord, r in zip(coords, datum.rho))
    return [datum.bilinear(shifted, beta) for beta in datum.odd_positive_roots]
