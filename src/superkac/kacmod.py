"""Kac modules: induction of an even module along the odd lowering
generators, with the odd Dynkin label b kept symbolic.

The basis is (odd subset) x (even basis): an element v_{s1}...v_{sk} w with
s1 < ... < sk.  Lowering generators act by signed wedge insertion, even
generators by the adjoint action on the wedge slots plus their action on
the even factor, and odd raising generators by normal ordering: u is
commuted rightward, each step contracting {u, v_s} into an even element
acting on the remaining tail.  The single hypercharge term of each
contraction is what makes the u matrices linear in b.

Every generator block at (subset', subset) is a rational combination
sum q * M, where each M is the identity or a base operator (an even label
acting on the even factor), and the coefficients q depend only on the
structure constants and P.  induce_core computes those coefficients as
plain rationals and assembles each generator in one pencil pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              RootDatum, StructureConstants, extend_matrices,
                              typicality_factors)
from superkac.evenrep import EvenModule
from superkac.exact import (ParamPoly, PolyMatrix, extract_rational_roots,
                            rational_linear_solve)


def wedge_insert(j: int, subset: tuple):
    """Insert index j into a sorted subset; returns (new_subset, sign) or None."""
    if j in subset:
        return None
    before = sum(1 for s in subset if s < j)
    new = subset[:before] + (j,) + subset[before:]
    return new, (-1) ** before


def wedge_replace(subset: tuple, position: int, new_index: int):
    """Replace the generator at one slot and resort; None if it repeats."""
    rest = subset[:position] + subset[position + 1:]
    if new_index in rest:
        return None
    before = sum(1 for s in rest if s < new_index)
    new = rest[:before] + (new_index,) + rest[before:]
    return new, (-1) ** ((position - before) % 2)


@dataclass(frozen=True)
class KacModule:
    """A module built by wedge induction; matrices are indexed by generator
    labels."""

    params: tuple
    basis: tuple                  # (subset, even_index) pairs
    matrices: dict                # GenLabel -> PolyMatrix
    weights: tuple                # epsilon/delta coordinates per basis vector
    layers: tuple                 # |subset| per basis vector
    spec: object
    datum: RootDatum
    sc: StructureConstants
    L: EvenModule
    labels: tuple
    hw_index: int
    y_scalar: ParamPoly
    z0_scalar: ParamPoly

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def odd_count(self) -> int:
        return self.sc.spec.odd_count

    def index_of(self, subset: tuple, even_index: int) -> int:
        return self.basis.index((tuple(subset), even_index))


def _subset_order(P: int):
    """Layer-major, then lexicographic on the sorted subset."""
    out = []
    for layer in range(P + 1):
        out.extend(itertools.combinations(range(1, P + 1), layer))
    return out


def _add(out: dict, subset: tuple, op, q) -> None:
    """out[subset][op] += q."""
    ops = out.get(subset)
    if ops is None:
        out[subset] = {op: q}
    else:
        cur = ops.get(op)
        ops[op] = q if cur is None else cur + q


def _even_action(g: GenLabel, subset: tuple, slots: Mapping,
                 on_base: bool) -> dict:
    """Even g on subset x base as {subset': {op: q}}: the adjoint action on
    each wedge slot (op None, the identity on the base) plus, if on_base,
    g on the base (op g).  slots[s] lists (t, coeff) with
    [g, v_s] = sum coeff v_t."""
    out: dict = {}
    for position, s in enumerate(subset):
        for t, coeff in slots.get(s, ()):
            replaced = wedge_replace(subset, position, t)
            if replaced is not None:
                new_subset, sign = replaced
                _add(out, new_subset, None, coeff if sign > 0 else -coeff)
    if on_base:
        _add(out, subset, g, 1)
    return out


def _u_action(j: int, subsets: Sequence[tuple], slots: Mapping,
              uv_exp: Mapping, on_base: set) -> dict:
    """u_j on every subset x base, as {subset: {subset': {op: q}}}, by
    normal ordering u_j v_head tail = {u_j, v_head} tail - v_head u_j tail.

    subsets run layer by layer, so u_j on a tail is known before it is
    needed; the even actions on tails are shared across heads.
    """
    even: dict = {}
    out: dict = {}
    for subset in subsets:
        image: dict = {}
        if subset:
            head, tail = subset[0], subset[1:]
            for g, coeff in uv_exp.get((j, head), ()):
                action = even.get((g, tail))
                if action is None:
                    action = even[(g, tail)] = _even_action(
                        g, tail, slots.get(g, {}), g in on_base)
                for new_subset, ops in action.items():
                    for op, q in ops.items():
                        _add(image, new_subset, op, coeff * q)
            for sub2, ops in out[tail].items():
                inserted = wedge_insert(head, sub2)
                if inserted is None:
                    continue
                new_subset, sign = inserted
                for op, q in ops.items():
                    _add(image, new_subset, op, -q if sign > 0 else q)
        nonzero = {}
        for new_subset, ops in image.items():
            ops = {op: q for op, q in ops.items() if q}
            if ops:
                nonzero[new_subset] = ops
        out[subset] = nonzero
    return out


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
    """
    subsets = _subset_order(P)
    basis = [(subset, l) for subset in subsets for l in range(base_dim)]
    offset = {subset: pos * base_dim for pos, subset in enumerate(subsets)}
    dim = len(basis)
    eye = PolyMatrix.identity(base_dim, params)
    slots: dict = {}
    for (g, s), pairs in adj.items():
        slots.setdefault(g, {})[s] = pairs
    # a label acting by zero on the base acts only on the wedge slots
    on_base = {g for g, mat in base_mats.items() if not mat.is_zero}

    def assemble(action: dict) -> PolyMatrix:
        """The generator whose block at (subset', subset) is
        sum q * (identity or base_mats[op]) over action[subset][subset']."""
        return PolyMatrix.from_blocks(dim, dim, params, (
            (offset[new_subset], offset[subset],
             eye if op is None else base_mats[op], q)
            for subset, image in action.items()
            for new_subset, ops in image.items()
            for op, q in ops.items()))

    matrices: dict = {}
    for g in surface_labels:
        matrices[g] = assemble({
            subset: _even_action(g, subset, slots.get(g, {}), g in on_base)
            for subset in subsets})
    for i in range(1, P + 1):
        lowering = {}
        for subset in subsets:
            inserted = wedge_insert(i, subset)
            if inserted is not None:
                new_subset, sign = inserted
                lowering[subset] = {new_subset: {None: sign}}
        matrices[GenLabel("v", i)] = assemble(lowering)
        matrices[GenLabel("u", i)] = assemble(
            _u_action(i, subsets, slots, uv_exp, on_base))
    return tuple(basis), matrices


def _scaled_identity(dim: int, params: tuple, scalar: ParamPoly) -> PolyMatrix:
    return PolyMatrix.identity(dim, params).scale(scalar)


def induce(L: EvenModule, datum: RootDatum, sc: StructureConstants) -> KacModule:
    """The Kac module K(L): free action of the odd lowering generators on L."""
    spec = sc.spec
    P = spec.odd_count
    params = L.params

    base_even = dict(L.matrices)
    base_even[GenLabel("y")] = _scaled_identity(L.dim, params, L.y_scalar)
    if spec.flavor == "gl":
        base_even[GenLabel("z0")] = _scaled_identity(L.dim, params, L.z0_scalar)
    base_even = extend_matrices(base_even, sc.recipes)

    even_labels = [lab for lab in sc.basis
                   if lab.kind in ("h", "e", "f", "y", "z0")]
    adj = {}
    for g in sc.basis:
        if sc.parity[g]:
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

    uv_exp = {}
    for (i, j), expansion in sc.d.items():
        uv_exp[(i, j)] = tuple(expansion.items())

    basis, matrices = induce_core(P, params, L.dim, even_labels,
                                  base_even, adj, uv_exp)

    roots = datum.odd_positive_roots
    weights, layers = [], []
    for subset, l in basis:
        if l == 0:
            # the basis runs over the even basis within each subset
            shift = [sum(roots[s - 1][k] for s in subset)
                     for k in range(len(roots[0]))]
        weights.append(tuple(c - r for c, r in zip(L.weights[l], shift)))
        layers.append(len(subset))

    return KacModule(
        params=params, basis=basis, matrices=matrices,
        weights=tuple(weights), layers=tuple(layers),
        spec=spec, datum=datum, sc=sc, L=L, labels=tuple(L.labels),
        hw_index=0, y_scalar=L.y_scalar, z0_scalar=L.z0_scalar)


# -- typicality -------------------------------------------------------------

@dataclass(frozen=True)
class TypicalityReport:
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

    def is_typical(self, b_value) -> bool:
        return not self.vanishing_types(b_value)


def kac_typicality(K: KacModule) -> TypicalityReport:
    """Apply all lowering then all raising odd generators to the highest
    weight vector and compare the resulting scalar with the product of the
    odd-root factors, as polynomials in b."""
    P = K.odd_count
    params = K.params
    state = PolyMatrix(K.dim, 1, params, {(K.hw_index, 0): 1})
    for kind in ("v", "u"):
        for i in range(P, 0, -1):
            state = K.matrices[GenLabel(kind, i)] @ state
    s_poly = state.entry(K.hw_index, 0)
    if state != PolyMatrix(K.dim, 1, params, {(K.hw_index, 0): s_poly}):
        raise InternalConsistencyError(
            "w+ w- Lambda left the highest weight line")
    if s_poly.is_zero:
        raise InternalConsistencyError(
            "typicality scalar vanished identically in b")

    factors = typicality_factors(K.datum, K.labels, params)
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
    """Basis positions grouped by their weight at bindings, in sorted
    weight order.  Each distinct coordinate is substituted once."""
    groups: dict = {}
    values: dict = {}                 # ParamPoly -> its value at bindings
    for pos, coord in enumerate(module.weights):
        key = []
        for c in coord:
            if c not in values:
                values[c] = c.substitute(bindings).constant_value()
            key.append(values[c])
        groups.setdefault(tuple(key), []).append(pos)
    return {key: groups[key] for key in sorted(groups)}


@dataclass(frozen=True)
class SingularVector:
    weight: tuple                 # substituted rational weight coordinates
    layer: int
    coefficients: tuple           # ((basis index, Fraction), ...)


@dataclass(frozen=True)
class SingularVectorReport:
    raising_set: str
    bindings: dict
    vectors: tuple

    def at_layer(self, layer: int):
        return [v for v in self.vectors if v.layer == layer]


def singular_vectors(K: KacModule, bindings: Mapping[str, Fraction],
                     raising_set: str = "even-and-odd") -> SingularVectorReport:
    """Exact nullspace of the stacked raising action, organized by weight.

    bindings must make every matrix parameter-free (b, and c for gl).
    """
    if raising_set not in ("even-and-odd", "even-only"):
        raise InputError(f"unknown raising set {raising_set!r}")
    bindings = {name: Fraction(v) for name, v in bindings.items()}
    missing = [p for p in K.params if p not in bindings]
    if missing:
        raise InputError(f"parameters {missing} must be bound for the solve")

    raising = [lab for lab in K.matrices
               if lab.kind == "e" or (raising_set == "even-and-odd"
                                      and lab.kind == "u")]
    raising.sort()
    mats = {lab: K.matrices[lab].substitute(bindings) for lab in raising}
    by_column: dict = {}
    for lab in raising:
        for (r, c), val in mats[lab].rational_entries().items():
            by_column.setdefault(c, []).append(((lab, r), val))

    found = []
    for key, cols in weight_spaces(K, bindings).items():
        # only the nonzero rows of the stacked raising action: the RREF
        # nullspace does not depend on row order or zero rows
        row_of: dict = {}
        entries = {}
        for j, c in enumerate(cols):
            for row_key, val in by_column.get(c, ()):
                entries[(row_of.setdefault(row_key, len(row_of)), j)] = val
        result = rational_linear_solve(
            PolyMatrix(len(row_of), len(cols), K.params, entries))
        for vec in result.nullspace:
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
    return SingularVectorReport(raising_set=raising_set,
                                bindings=dict(bindings), vectors=tuple(found))

