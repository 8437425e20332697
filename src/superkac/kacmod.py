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
integers once, computes each W_op as an integer matrix over one
denominator on odd subsets stored as bitmasks, with the action of each
even label on each subset computed once, and assembles each generator in
one integer pass (exact.kronecker_sum).

The weights stay on integers as well: K keeps the highest weight of L
once, and the weight of v_S w_l is it minus the int shift of w_l plus the
odd roots of S.  weight_spaces substitutes the highest weight once and
groups basis positions by shift, and singular_vectors feeds the integer
rows of the substituted raising matrices, one weight space at a time,
straight to exact.integer_rref.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import lcm
from operator import add

from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              StructureConstants, extend_matrices,
                              parity_of, typicality_factors)
from superkac.evenrep import EvenModule
from superkac.exact import (ParamPoly, PolyMatrix, extract_rational_roots,
                            integer_rref, kronecker_sum, nullspace, rat)
from superkac.record import Record


class KacModule(Record):
    """A module built by wedge induction; matrices are indexed by generator
    labels.  The params and the highest weight are those of L."""

    basis: tuple                  # (subset, even_index) pairs, v_Lambda first
    matrices: dict                # GenLabel -> PolyMatrix
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


def _signed(q: int, bits: int) -> int:
    """q times (-1)^popcount(bits): the sign of moving a wedge slot past
    the slots set in bits."""
    return -q if bits.bit_count() & 1 else q


def _common_den(coefficients) -> int:
    """The lcm of the denominators of some rationals: each of them times it
    is an int."""
    return lcm(*(q.denominator for q in coefficients))


def induce_core(P: int, params: tuple, base_dim: int,
                surface_labels: Sequence[GenLabel],
                base_mats: Mapping[GenLabel, PolyMatrix],
                adj: Mapping, uv_exp: Mapping) -> tuple:
    """Wedge induction shared by Kac modules over g and over the Heisenberg
    superalgebra.

    base_mats must provide the action of every even label reachable through
    uv_exp on the base module; adj[(g, s)] lists (t, coeff) with
    [g, v_s] = sum coeff v_t; uv_exp[(i, j)] lists (even label, coeff) for
    the contraction {u_i, v_j}.  Returns (basis, matrices) where matrices
    covers surface_labels plus all u_i and v_i.

    An odd subset is a bitmask with bit s for v_s, and a wedge sign is the
    parity of the slots passed.  The adj coefficients are scaled to ints
    over the lcm of their denominators, adj_den, and the uv_exp ones over
    theirs, uv_den.  Each generator is first computed as {op: W_op}, where
    op is None (the identity on the base) or the position of an even label
    (its base operator), and W_op is the wedge-sized matrix
    (den, {subset' position: {subset position: int}}); it is then assembled
    as sum_op W_op (x) base operator in one pass.
    """
    subsets = _subset_order(P)
    masks = [sum(1 << s for s in subset) for subset in subsets]
    pos = {mask: k for k, mask in enumerate(masks)}
    size = len(masks)
    # even labels by position: the surface, then any reached only via uv_exp
    label_pos = {g: k for k, g in enumerate(surface_labels)}
    for expansion in uv_exp.values():
        for g, _ in expansion:
            label_pos.setdefault(g, len(label_pos))
    labels = list(label_pos)
    uv_den = _common_den(c for expansion in uv_exp.values()
                         for _, c in expansion)
    uv = {key: [(label_pos[g], int(coeff * uv_den)) for g, coeff in expansion]
          for key, expansion in uv_exp.items()}
    adj = {key: pairs for key, pairs in adj.items() if key[0] in label_pos}
    adj_den = _common_den(c for pairs in adj.values() for _, c in pairs)
    # slots[g][s]: adj_den [g, v_s] as (t, int) pairs
    slots: list = [{} for _ in labels]
    for (g, s), pairs in adj.items():
        slots[label_pos[g]][s] = [(t, int(c * adj_den)) for t, c in pairs]
    # a label acting by zero on the base acts only on the wedge slots
    on_base = [g in base_mats and not base_mats[g].is_zero for g in labels]
    eye = PolyMatrix.identity(base_dim, params)
    memo: dict = {}

    def slot_action(g: int, mask: int) -> dict:
        """adj_den times the adjoint action of label position g on the wedge
        slots of mask, {mask': int}; computed once per (g, mask)."""
        key = g << (P + 1) | mask
        out = memo.get(key)
        if out is None:
            out = {}
            for s, pairs in slots[g].items():
                bit = 1 << s
                if not mask & bit:
                    continue
                rest, below = mask ^ bit, mask & (bit - 1)
                for t, coeff in pairs:
                    new_bit = 1 << t
                    if rest & new_bit:
                        continue
                    new = rest | new_bit
                    q = _signed(coeff, below ^ (rest & (new_bit - 1)))
                    out[new] = out.get(new, 0) + q
            out = memo[key] = {m: q for m, q in out.items() if q}
        return out

    def assemble(ws: dict) -> PolyMatrix:
        return kronecker_sum(size, base_dim, params, (
            (W, eye if op is None else base_mats[labels[op]])
            for op, W in ws.items()))

    matrices: dict = {}
    for g, label in enumerate(surface_labels):
        ident: dict = {}
        for k, mask in enumerate(masks):
            for new, q in slot_action(g, mask).items():
                ident.setdefault(pos[new], {})[k] = q
        ws = {None: (adj_den, ident)}
        if on_base[g]:
            ws[g] = (1, {k: {k: 1} for k in range(size)})
        matrices[label] = assemble(ws)
    u_den = uv_den * adj_den
    for i in range(1, P + 1):
        bit = 1 << i
        matrices[GenLabel("v", i)] = assemble({None: (1, {
            pos[mask | bit]: {k: _signed(1, mask & (bit - 1))}
            for k, mask in enumerate(masks) if not mask & bit})})
        matrices[GenLabel("u", i)] = assemble({
            op: (u_den, W) for op, W in _u_action(
                i, masks, pos, uv, adj_den, on_base, slot_action).items()})
    basis = tuple((subset, l) for subset in subsets for l in range(base_dim))
    return basis, matrices


def _u_action(j: int, masks: Sequence[int], pos: Mapping, uv: Mapping,
              adj_den: int, on_base: Sequence[bool], slot_action) -> dict:
    """uv_den * adj_den * u_j as {op: integer W_op}, where uv holds the
    contraction coefficients times uv_den, by normal ordering
    u_j v_head tail = {u_j, v_head} tail - v_head u_j tail, head the least
    slot.  masks run layer by layer, so u_j on a tail is known before it is
    needed."""
    images: dict = {}             # mask -> {op: {mask': q}}
    ws: dict = {}
    for k, mask in enumerate(masks):
        image: dict = {}
        if mask:
            head_bit = mask & -mask
            tail = mask ^ head_bit
            for g, coeff in uv.get((j, head_bit.bit_length() - 1), ()):
                col = image.setdefault(None, {})
                for new, q in slot_action(g, tail).items():
                    col[new] = col.get(new, 0) + coeff * q
                if on_base[g]:
                    col = image.setdefault(g, {})
                    col[tail] = col.get(tail, 0) + coeff * adj_den
            for op, tail_col in images[tail].items():
                col = image.setdefault(op, {})
                for m, q in tail_col.items():
                    if m & head_bit:
                        continue
                    new = m | head_bit
                    col[new] = col.get(new, 0) - _signed(
                        q, m & (head_bit - 1))
        images[mask] = kept = {}
        for op, col in image.items():
            col = {m: q for m, q in col.items() if q}
            if col:
                kept[op] = col
                rows = ws.setdefault(op, {})
                for m, q in col.items():
                    rows.setdefault(pos[m], {})[k] = q
    return ws


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
    hw = [c.substitute(bindings).constant_value() for c in module.hw]
    groups: dict = {}
    for pos, shift in enumerate(module.shifts):
        groups.setdefault(shift, []).append(pos)
    return {tuple(x - s for x, s in zip(hw, shift)): groups[shift]
            for shift in sorted(groups, reverse=True)}


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

    found = []
    for key, cols in weight_spaces(K, bindings).items():
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
        for vec in nullspace(pivots, reduced, len(cols)):
            coeffs = tuple((cols[i], value) for i, value in enumerate(vec)
                           if value != 0)
            layer = K.layers[coeffs[0][0]]
            found.append(SingularVector(weight=key, layer=layer,
                                        coefficients=coeffs))
            # exactness self-check: the embedded vector is annihilated
            embedded = PolyMatrix(K.dim, 1, K.params,
                                  {(pos, 0): value for pos, value in coeffs})
            for lab in raising:
                if not (mats[lab] @ embedded).is_zero:
                    raise InternalConsistencyError(
                        f"reported singular vector not annihilated by {lab}")
    return SingularVectorReport(vectors=tuple(found))

