"""Kac modules: induction of an even module along the odd lowering
generators, with the odd Dynkin label b kept symbolic.

The basis is (odd subset) x (even basis): an element v_{s1}...v_{sk} w with
s1 < ... < sk.  Lowering generators act by signed wedge insertion, even
generators by the adjoint action on the wedge slots plus their action on
the even factor, and odd raising generators by normal ordering: u is
commuted rightward, each step contracting {u, v_s} into an even element
acting on the remaining tail.  The single hypercharge term of each
contraction is what makes the u matrices linear in b.

So every generator is a Kronecker sum, sum_op W_op (x) B_op, where B_op is
the identity or a base operator (an even label acting on the even factor)
and W_op is a wedge-sized rational matrix that depends only on the
structure constants and P.  induce_core scales the structure constants to
integers once and computes each W_op as an integer matrix over one
denominator on odd subsets stored as bitmasks, with work that follows the
entries it writes.  The slot action of each even label is split once into
a diagonal part, which acts on a subset by its weight (one lookup in a
table filled over all subsets in one pass; all of h_i, y and z0 is
diagonal), and moves s -> t, each walked over just the subsets it maps.
u_j is written in closed form: on v_S it is the sum over the slots s of S
of (-1)^|prefix| v_prefix ({u_j, v_s} v_tail), each contraction {u_j, v_s}
split once into one weight table on tails, its moves and its base
operators.  K keeps each generator in that factored form: its matrices
are a view (InducedMatrices) that assembles a label in one integer pass
(exact.kronecker_sum, where W (x) I at base dimension 1 is W itself) on
its first read and keeps it, so a verb assembles only the labels it
reads, and unkept reads a label once without keeping it.

The weights stay on integers as well: K keeps the highest weight of L
once, and the weight of v_S w_l is it minus the int shift of w_l plus the
odd roots of S.  weight_spaces substitutes the highest weight once and
groups basis positions by shift, and singular_vectors feeds the integer
rows of the substituted raising matrices, one group of equal shifts at a
time, straight to exact.integer_rref, forming a weight only where it
finds a vector.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import add

from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              StructureConstants, extend_matrices,
                              parity_of, typicality_factors)
from superkac.evenrep import EvenModule
from superkac.exact import (ParamPoly, PolyMatrix, extract_rational_roots,
                            integer_rref, kronecker_sum, nullspace, rat)
from superkac.record import Record


class InducedMatrices(Mapping):
    """GenLabel -> the generator's matrix sum_op W_op (x) B_op on the
    basis (odd subset, base index), assembled by exact.kronecker_sum on its
    first read and kept in place of its factors.

    ``stored[label]`` is a tuple of the label's (W_op, B_op) pairs as
    kronecker_sum takes them, W_op a size-square matrix (den, {row: {col:
    int}}) and B_op a base_dim-square PolyMatrix, until the label is
    read; then it is the assembled PolyMatrix."""

    def __init__(self, size: int, base_dim: int, params: tuple,
                 stored: dict):
        self.size, self.base_dim, self.params = size, base_dim, params
        self.stored = stored

    def assembled(self, label: GenLabel) -> PolyMatrix:
        """The label's matrix, assembled if it is not yet, and not kept."""
        entry = self.stored[label]
        if entry.__class__ is tuple:
            return kronecker_sum(self.size, self.base_dim, self.params, entry)
        return entry

    def __getitem__(self, label: GenLabel) -> PolyMatrix:
        entry = self.stored[label]
        if entry.__class__ is tuple:
            entry = self.stored[label] = self.assembled(label)
        return entry

    def __contains__(self, label) -> bool:
        return label in self.stored

    def __iter__(self):
        return iter(self.stored)

    def __len__(self) -> int:
        return len(self.stored)


def unkept(matrices: Mapping, label: GenLabel) -> PolyMatrix:
    """matrices[label]; a label that an InducedMatrices view has not yet
    assembled is assembled for this read alone and not kept, so a reader
    that takes one label at a time holds one."""
    if isinstance(matrices, InducedMatrices):
        return matrices.assembled(label)
    return matrices[label]


class KacModule(Record):
    """A module built by wedge induction; matrices are indexed by generator
    labels.  The params and the highest weight are those of L."""

    basis: tuple                  # (subset, even_index) pairs, v_Lambda first
    matrices: Mapping             # GenLabel -> PolyMatrix, lazy from induce
    shifts: tuple                 # per basis vector, hw minus its weight (ints)
    layers: tuple                 # |subset| per basis vector
    sc: StructureConstants
    L: EvenModule

    @property
    def params(self) -> tuple:
        return self.L.params

    @property
    def hw(self) -> tuple:
        return self.L.hw

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def odd_count(self) -> int:
        return self.sc.spec.odd_count


def _subset_order(P: int):
    """Layer-major, then lexicographic on the sorted subset."""
    out = []
    for layer in range(P + 1):
        out.extend(itertools.combinations(range(1, P + 1), layer))
    return out


def _weights(d: Sequence[int]) -> list:
    """w[x] = the sum of d[i] over the set bits i of x, for every
    x < 2^len(d); each x is filled from x without its top bit."""
    w = [0]
    for q in d:
        w += [x + q for x in w]
    return w


def _submasks(m: int) -> list:
    """Every submask of m, in increasing order."""
    out = [0]
    while m:
        low = m & -m
        out += [x | low for x in out]
        m ^= low
    return out


def _add(rows: dict, r: int, c: int, q: int) -> None:
    """rows[r][c] += q on dict-of-dict rows."""
    row = rows.get(r)
    if row is None:
        rows[r] = {c: q}
    else:
        row[c] = row.get(c, 0) + q


def induce_core(P: int, params: tuple, base_dim: int,
                surface_labels: Sequence[GenLabel],
                base_mats: Mapping[GenLabel, PolyMatrix],
                adj: Mapping, uv_exp: Mapping) -> tuple:
    """Wedge induction shared by Kac modules over g and over the Heisenberg
    superalgebra.

    base_mats must provide the action of every surface label and of every
    even label reachable through uv_exp on the base module (a missing one
    raises InternalConsistencyError); adj[(g, s)] lists (t, coeff) with
    [g, v_s] = sum coeff v_t; uv_exp[(i, j)] lists (even label, coeff) for
    the contraction {u_i, v_j}.  Returns (basis, matrices) where matrices
    is the InducedMatrices view of surface_labels plus all u_i and v_i.

    An odd subset is a bitmask with bit s - 1 for v_s, and a wedge sign is
    the parity of the slots passed.  The adj coefficients are scaled to
    ints over the lcm of their denominators, adj_den, and the uv_exp ones
    over theirs, uv_den.  Each label's slot action is split once into its
    diagonal part (s -> s), which acts on a subset by its weight, the sum
    over the subset's slots, and its moves s -> t.  Each generator is
    first computed as {op: W_op}, where op is None (the identity on the
    base) or the position of an even label (its base operator), and W_op
    is the wedge-sized matrix (den, {subset' position: {subset position:
    int}}); the view assembles sum_op W_op (x) base operator in one pass
    where the label is read.
    """
    subsets = _subset_order(P)
    masks = [sum(1 << (s - 1) for s in subset) for subset in subsets]
    pos = [0] * (1 << P)          # mask -> position in the subset order
    for k, mask in enumerate(masks):
        pos[mask] = k
    size = len(masks)
    full = (1 << P) - 1
    # even labels by position: the surface, then any reached only via uv_exp
    label_pos = {g: k for k, g in enumerate(surface_labels)}
    for expansion in uv_exp.values():
        for g, _ in expansion:
            label_pos.setdefault(g, len(label_pos))
    labels = list(label_pos)
    for g in labels:
        if g not in base_mats:
            raise InternalConsistencyError(
                f"no action of {g} on the base module")
    # a label acting by zero on the base acts only on the wedge slots
    on_base = [not base_mats[g].is_zero for g in labels]
    uv_den = lcm(*(c.denominator for expansion in uv_exp.values()
                   for _, c in expansion))
    adj = {key: pairs for key, pairs in adj.items() if key[0] in label_pos}
    adj_den = lcm(*(c.denominator for pairs in adj.values()
                    for _, c in pairs))
    # adj_den [g, v_s]: diag[g][s - 1] on v_s itself, moves[g][(s, t)] on v_t
    diag = [[0] * P for _ in labels]
    moves: list = [{} for _ in labels]
    for (g, s), pairs in adj.items():
        g = label_pos[g]
        for t, c in pairs:
            if t == s:
                diag[g][s - 1] += int(c * adj_den)
            else:
                moves[g][(s, t)] = moves[g].get((s, t), 0) + int(c * adj_den)
    eye = PolyMatrix.identity(base_dim, params)

    def factors(ws: dict) -> tuple:
        return tuple((W, eye if op is None else base_mats[labels[op]])
                     for op, W in ws.items())

    def move(rows: dict, s: int, t: int, q: int, drop: int,
             sign_bits: int) -> None:
        """rows += q times v_s -> v_t on every subset that holds s and the
        slots of drop but not t: each goes to the subset without drop and
        with t in place of s, signed by the parity of its other slots in
        sign_bits or strictly between s and t."""
        sb, tb = 1 << (s - 1), 1 << (t - 1)
        sign_bits ^= max(sb, tb) - (min(sb, tb) << 1)
        for r in _submasks(full & ~(sb | tb | drop)):
            _add(rows, pos[r | tb], pos[r | sb | drop],
                 -q if (r & sign_bits).bit_count() & 1 else q)

    parts: dict = {}
    for g, label in enumerate(surface_labels):
        rows: dict = {}
        if any(diag[g]):
            weight = _weights(diag[g])
            for k, mask in enumerate(masks):
                if weight[mask]:
                    rows[k] = {k: weight[mask]}
        for (s, t), q in moves[g].items():
            if q:
                move(rows, s, t, q, 0, 0)
        ws = {None: (adj_den, rows)}
        if on_base[g]:
            ws[g] = (1, {k: {k: 1} for k in range(size)})
        parts[label] = factors(ws)
    for i in range(1, P + 1):
        bit = 1 << (i - 1)
        parts[GenLabel("v", i)] = factors({None: (1, {
            pos[mask | bit]: {k: -1 if (mask & (bit - 1)).bit_count() & 1
                              else 1}
            for k, mask in enumerate(masks) if not mask & bit})})
        # u_i v_S = sum over the slots s of S, prefix below s and tail
        # above: (-1)^|prefix| v_prefix ({u_i, v_s} v_tail), each
        # contraction split once into its weight on tails, its moves of a
        # tail slot and its base operators
        splits = []
        # op -> gcd of its W's den and ints, divided out so that each W
        # is stored in lowest terms
        shared = {None: uv_den * adj_den}
        for s in range(1, P + 1):
            expansion = uv_exp.get((i, s))
            if not expansion:
                continue
            tail_diag = [0] * (P - s)
            tail_moves: dict = {}
            base: dict = {}
            for g, c in expansion:
                g, c = label_pos[g], int(c * uv_den)
                tail_diag = [x + c * y for x, y in zip(tail_diag, diag[g][s:])]
                for key, q in moves[g].items():
                    if key[0] > s:
                        tail_moves[key] = tail_moves.get(key, 0) + c * q
                if on_base[g]:
                    base[g] = base.get(g, 0) + c
            tail_moves = {key: q for key, q in tail_moves.items() if q}
            base = {g: c for g, c in base.items() if c}
            shared[None] = gcd(shared[None], *tail_diag, *tail_moves.values())
            for g, c in base.items():
                shared[g] = gcd(shared.get(g, uv_den), c)
            splits.append((s, tail_diag, tail_moves, base))
        u_rows: dict = {op: {} for op in shared}
        wedge = u_rows[None]
        for s, tail_diag, tail_moves, base in splits:
            sb = 1 << (s - 1)
            weight = _weights([x // shared[None] for x in tail_diag]) \
                if any(tail_diag) else None
            base = [(u_rows[g], c // shared[g]) for g, c in base.items()]
            if weight or base:
                for r in _submasks(full ^ sb):
                    k, new = pos[r | sb], pos[r]
                    neg = (r & (sb - 1)).bit_count() & 1
                    if weight and weight[r >> s]:
                        q = weight[r >> s]
                        _add(wedge, new, k, -q if neg else q)
                    for rows, c in base:
                        _add(rows, new, k, -c if neg else c)
            for (s2, t), q in tail_moves.items():
                move(wedge, s2, t, q // shared[None], sb, sb - 1)
        parts[GenLabel("u", i)] = factors({
            op: ((uv_den * adj_den if op is None else uv_den) // shared[op],
                 rows)
            for op, rows in u_rows.items()})
    basis = tuple((subset, l) for subset in subsets for l in range(base_dim))
    return basis, InducedMatrices(size, base_dim, tuple(params), parts)


def _shifted(base_shifts: Sequence[tuple], subsets: Sequence,
             roots: Sequence[tuple]) -> tuple:
    """(shifts, layers) of the basis (subset, l), subsets in the given
    order and l running fastest: v_S w_l sits below the highest weight by
    the shift of w_l plus the roots of S, a subset's roots being its
    tail's plus its head's."""
    odd = {(): (0,) * len(roots[0])}
    shifts, layers = [], []
    for subset in subsets:
        shift = odd.get(subset)
        if shift is None:
            shift = odd[subset] = tuple(
                map(add, odd[subset[1:]], roots[subset[0] - 1]))
        shifts += [tuple(map(add, base, shift)) for base in base_shifts]
        layers += [len(subset)] * len(base_shifts)
    return tuple(shifts), tuple(layers)


def induce(L: EvenModule, sc: StructureConstants) -> KacModule:
    """The Kac module K(L): free action of the odd lowering generators on L."""
    spec = sc.spec
    P = spec.odd_count
    params = L.params

    eye = PolyMatrix.identity(L.dim, params)
    base_even = dict(L.matrices)
    base_even[GenLabel("y")] = eye.scale(L.y_scalar)
    if spec.flavor == "gl":
        base_even[GenLabel("z0")] = eye.scale(L.z0_scalar)
    base_even = extend_matrices(base_even, sc.recipes)

    even_labels = [lab for lab in sc.basis
                   if lab.kind in ("h", "e", "f", "y", "z0")]
    adj = {}
    for g in sc.basis:
        if parity_of(g):
            continue
        for s in range(1, P + 1):
            expansion = sc.bracket(g, GenLabel("v", s))
            pairs = []
            for target, coeff in expansion.items():
                if target.kind != "v":
                    raise InternalConsistencyError(
                        f"[{g}, v_{s}] left the lowering multiplet")
                pairs.append((target.index, coeff))
            if pairs:
                adj[(g, s)] = tuple(pairs)

    uv_exp = {(i, j): tuple(sc.bracket(GenLabel("u", i),
                                       GenLabel("v", j)).items())
              for i in range(1, P + 1) for j in range(1, P + 1)}

    basis, matrices = induce_core(P, params, L.dim, even_labels,
                                  base_even, adj, uv_exp)

    shifts, layers = _shifted(L.shifts, _subset_order(P),
                              sc.datum.odd_positive_roots)

    return KacModule(basis=basis, matrices=matrices, shifts=shifts,
                     layers=layers, sc=sc, L=L)


# -- typicality -------------------------------------------------------------

class TypicalityReport(Record):
    s_poly: ParamPoly             # coefficient of Lambda in w+ w- Lambda
    factors: tuple                # the P linear polynomials <Lambda+rho|beta_i>
    constant: Fraction            # s_poly == constant * prod(factors)
    proportional: bool
    s_roots: tuple                # sorted ((root, multiplicity), ...)
    factor_roots: tuple
    roots_match: bool

    def vanishing_types(self, b_value) -> tuple:
        """1-based indices i with <Lambda+rho|beta_i> = 0 at this b."""
        out = []
        for pos, factor in enumerate(self.factors, start=1):
            if factor.substitute({"b": b_value}).constant_value() == 0:
                out.append(pos)
        return tuple(out)


def kac_typicality(K: KacModule) -> TypicalityReport:
    """Apply all lowering then all raising odd generators to the highest
    weight vector and compare the resulting scalar with the product of the
    odd-root factors, as polynomials in b."""
    P = K.odd_count
    params = K.params
    state = PolyMatrix(K.dim, 1, params, {(0, 0): 1})
    for kind in ("v", "u"):
        for i in range(P, 0, -1):
            state = K.matrices[GenLabel(kind, i)] @ state
    s_poly = state.entry(0, 0)
    if state != PolyMatrix(K.dim, 1, params, {(0, 0): s_poly}):
        raise InternalConsistencyError(
            "w+ w- Lambda left the highest weight line")
    if s_poly.is_zero:
        raise InternalConsistencyError(
            "typicality scalar vanished identically in b")

    factors = typicality_factors(K.sc.datum, K.L.labels)
    product = ParamPoly.const(params, 1)
    for factor in factors:
        product = product * factor

    lead = s_poly.coefficient("b", P)
    constant = lead.constant_value() if lead.is_constant else None
    proportional = constant is not None and s_poly == product * constant

    s_roots, cofactor = extract_rational_roots(s_poly, "b")
    factor_roots: dict = {}
    for factor in factors:
        root = -(factor.coefficient("b", 0).constant_value()
                 / factor.coefficient("b", 1).constant_value())
        factor_roots[root] = factor_roots.get(root, 0) + 1
    factor_roots = sorted(factor_roots.items())
    roots_match = (list(s_roots) == list(factor_roots)
                   and cofactor.degree("b") == 0)

    return TypicalityReport(
        s_poly=s_poly, factors=tuple(factors), constant=constant,
        proportional=proportional, s_roots=tuple(s_roots),
        factor_roots=tuple(factor_roots), roots_match=roots_match)


# -- singular vectors --------------------------------------------------------

def weight_spaces(module, bindings: Mapping[str, Fraction]) -> dict:
    """Basis positions grouped by their weight at bindings, as
    {weight: [position, ...]} in sorted weight order, a weight being the
    tuple of its substituted Fraction coordinates.

    The highest weight is substituted once and positions are grouped by
    shift.  Every weight is that one value minus its shift, so two weights
    are equal iff their shifts are, and descending shifts are ascending
    weights."""
    hw = _bound_hw(module, bindings)
    return {tuple(x - s for x, s in zip(hw, shift)): cols
            for shift, cols in _shift_groups(module.shifts)}


def _bound_hw(module, bindings: Mapping[str, Fraction]) -> list:
    """The highest weight's Fraction coordinates at bindings."""
    return [c.substitute(bindings).constant_value() for c in module.hw]


def _shift_groups(shifts: Sequence[tuple]) -> list:
    """(shift, [position, ...]) for each distinct shift, in descending
    shift order."""
    groups: dict = {}
    for pos, shift in enumerate(shifts):
        groups.setdefault(shift, []).append(pos)
    return sorted(groups.items(), reverse=True)


class SingularVector(Record):
    weight: tuple                 # substituted rational weight coordinates
    layer: int
    coefficients: tuple           # ((basis index, Fraction), ...)


class SingularVectorReport(Record):
    vectors: tuple


def singular_vectors(K: KacModule,
                     bindings: Mapping[str, Fraction]) -> SingularVectorReport:
    """Exact nullspace of the stacked raising action, organized by weight.

    bindings must make every matrix parameter-free (b, and c for gl).
    """
    bindings = {name: rat(v) for name, v in bindings.items()}
    missing = [p for p in K.params if p not in bindings]
    if missing:
        raise InputError(f"parameters {missing} must be bound for the solve")

    raising = sorted(lab for lab in K.matrices if lab.kind in ("e", "u"))
    mats = {lab: K.matrices[lab].substitute(bindings) for lab in raising}
    # only the simple e_i and u_1 are stacked: u_1 is the lowest weight
    # vector of g_1 under the even Borel, so they generate the raising
    # subalgebra, and a vector they annihilate is annihilated by all of
    # it.  The kernel, and with it the unique RREF, is that of the whole
    # stack.  Row r of the k-th stacked label is stacked row k * dim + r,
    # holding that label's numerators: dropping its denominator scales
    # the row only, so the nullspace keeps the same RREF
    simple = [lab for lab in raising if lab.kind == "e" or lab.index == 1]
    by_column: dict = {}
    for k, lab in enumerate(simple):
        offset = k * K.dim
        for r, row in mats[lab].integer_term()[1].items():
            for c, x in row.items():
                by_column.setdefault(c, []).append((offset + r, x))

    # a weight space is a group of equal shifts (see weight_spaces), whose
    # weight is formed only where it holds a vector
    hw = _bound_hw(K, bindings)
    found = []
    for shift, cols in _shift_groups(K.shifts):
        # only the nonzero rows of the stacked raising action: the RREF
        # does not depend on row order or zero rows
        rows: dict = {}
        for j, c in enumerate(cols):
            for stacked, x in by_column.get(c, ()):
                row = rows.get(stacked)
                if row is None:
                    rows[stacked] = {j: x}
                else:
                    row[j] = x
        pivots, reduced = integer_rref(rows.values())
        vectors = nullspace(pivots, reduced, len(cols))
        if vectors:
            weight = tuple(x - s for x, s in zip(hw, shift))
        for vec in vectors:
            coeffs = tuple((cols[i], value) for i, value in enumerate(vec)
                           if value != 0)
            layer = K.layers[coeffs[0][0]]
            found.append(SingularVector(weight=weight, layer=layer,
                                        coefficients=coeffs))
            # exactness self-check: the embedded vector is annihilated
            embedded = PolyMatrix(K.dim, 1, K.params,
                                  {(pos, 0): value for pos, value in coeffs})
            for lab in raising:
                if not (mats[lab] @ embedded).is_zero:
                    raise InternalConsistencyError(
                        f"reported singular vector not annihilated by {lab}")
    return SingularVectorReport(vectors=tuple(found))

