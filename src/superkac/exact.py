"""Exact scalar and linear-algebra substrate.

Scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms with positive denominator).  On top of that sit sparse multivariate
polynomials in a declared tuple of named parameters (``ParamPoly``), sparse
matrices over them (``PolyMatrix``), and one sparse elimination kernel.  A
``PolyMatrix`` is stored as a pencil, one integer matrix over one
denominator per monomial, so its products and sums run over Python ints;
``Fraction`` objects are built only where an entry is returned.

Every exact solve is a reduced row echelon form computed by
``integer_rref``: sparse rows are scaled to integers, eliminated
fraction-free into an echelon form of primitive rows (``echelon_insert``)
and back-substituted over the integers; ``rref`` divides each row by its
pivot entry for callers that want ``Fraction`` rows.  The RREF of a matrix
is unique, so its pivots, rows and nullspace basis do not depend on the
row order.

No floating point enters anywhere; every identity checked downstream is a
bit-exact statement about these objects.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from superkac.record import Record

Rational = Fraction

ScalarLike = int | Fraction


class DeclarationError(ValueError):
    """Operands disagree on the declared parameter list, or a name is unknown."""


class ParameterizedEntryError(ValueError):
    """An exact rational solve received a matrix with symbolic entries."""


def rat(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class ParamPoly:
    """Sparse polynomial over Q in a fixed tuple of named parameters.

    Terms map exponent vectors (one slot per declared parameter) to nonzero
    rational coefficients.  Instances are immutable by convention: all
    operations return new objects and never mutate ``terms``.
    """

    __slots__ = ("params", "terms", "_hash")

    def __init__(self, params: Sequence[str], terms: Mapping[tuple, ScalarLike]):
        params = tuple(params)
        clean = {}
        width = len(params)
        for exps, coeff in terms.items():
            coeff = rat(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != width or any(e < 0 for e in exps):
                raise DeclarationError(
                    f"exponent vector {exps} does not match parameters {params}")
            clean[exps] = clean.get(exps, Fraction(0)) + coeff
            if clean[exps] == 0:
                del clean[exps]
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, params: tuple, terms: dict) -> "ParamPoly":
        """Wrap canonical terms (no zero coefficient) without checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "params", params)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "_hash", None)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: Sequence[str]) -> "ParamPoly":
        return cls(params, {})

    @classmethod
    def const(cls, params: Sequence[str], value: ScalarLike) -> "ParamPoly":
        value = rat(value)
        if value == 0:
            return cls(params, {})
        return cls(params, {(0,) * len(tuple(params)): value})

    @classmethod
    def var(cls, params: Sequence[str], name: str) -> "ParamPoly":
        params = tuple(params)
        if name not in params:
            raise DeclarationError(f"parameter {name!r} not declared in {params}")
        exps = tuple(1 if p == name else 0 for p in params)
        return cls(params, {exps: Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            if other.params != self.params:
                raise DeclarationError(
                    f"parameter lists differ: {self.params} vs {other.params}")
            return other
        return ParamPoly.const(self.params, other)

    def _plus(self, other, sign: int) -> "ParamPoly":
        """self + sign * other in one pass, for a ParamPoly or a rational."""
        if isinstance(other, ParamPoly):
            other = self._coerce(other).terms
        else:
            value = rat(other)
            other = {(0,) * len(self.params): value} if value else {}
        terms = dict(self.terms)
        for exps, coeff in other.items():
            acc = terms.get(exps, 0) + (coeff if sign > 0 else -coeff)
            if acc:
                terms[exps] = acc
            else:
                del terms[exps]
        return ParamPoly._of(self.params, terms)

    def __add__(self, other) -> "ParamPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._of(self.params,
                             {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "ParamPoly":
        return (-self)._plus(other, 1)

    def __mul__(self, other) -> "ParamPoly":
        if not isinstance(other, ParamPoly):
            other = rat(other)
            if other == 0:
                return ParamPoly.zero(self.params)
            return ParamPoly._of(self.params,
                                 {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(e, Fraction(0)) + c1 * c2
                if acc == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = acc
        return ParamPoly._of(self.params, terms)

    __rmul__ = __mul__

    # -- calculus and evaluation -------------------------------------------

    def substitute(self, bindings: Mapping[str, ScalarLike]) -> "ParamPoly":
        """Exact partial evaluation; unbound parameters stay symbolic."""
        for name in bindings:
            if name not in self.params:
                raise DeclarationError(f"parameter {name!r} not declared")
        values = {self.params.index(n): rat(v) for n, v in bindings.items()}
        terms: dict = {}
        for exps, coeff in self.terms.items():
            factor = coeff
            new_exps = list(exps)
            for idx, val in values.items():
                factor *= val ** exps[idx]
                new_exps[idx] = 0
            if factor == 0:
                continue
            key = tuple(new_exps)
            acc = terms.get(key, Fraction(0)) + factor
            if acc == 0:
                terms.pop(key, None)
            else:
                terms[key] = acc
        return ParamPoly(self.params, terms)

    def derivative(self, name: str) -> "ParamPoly":
        """Exact formal partial derivative with respect to one parameter."""
        if name not in self.params:
            raise DeclarationError(f"parameter {name!r} not declared")
        idx = self.params.index(name)
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            new = list(exps)
            new[idx] = e - 1
            terms[tuple(new)] = coeff * e
        return ParamPoly(self.params, terms)

    def coefficient(self, name: str, power: int) -> "ParamPoly":
        """Polynomial coefficient of ``name**power`` (result over the same params)."""
        if name not in self.params:
            raise DeclarationError(f"parameter {name!r} not declared")
        idx = self.params.index(name)
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[idx] != power:
                continue
            new = list(exps)
            new[idx] = 0
            terms[tuple(new)] = coeff
        return ParamPoly(self.params, terms)

    # -- queries -----------------------------------------------------------

    def degree(self, name: str) -> int:
        """Exact degree in one parameter (zero polynomial has degree 0)."""
        if name not in self.params:
            raise DeclarationError(f"parameter {name!r} not declared")
        idx = self.params.index(name)
        return max((exps[idx] for exps in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant:
            raise ParameterizedEntryError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        return (isinstance(other, ParamPoly) and self.params == other.params
                and self.terms == other.terms)

    def __hash__(self):
        # a coefficient enters as (~numerator, denominator): CPython gives
        # -1 the hash of -2, and ~n is -1 only for n = 0, never stored
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.params, tuple(sorted(
                (exps, ~q.numerator, q.denominator)
                for exps, q in self.terms.items())))))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            mono = ".".join(f"{p}^{e}" for p, e in zip(self.params, exps) if e)
            if not mono:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(mono)
            elif coeff == -1:
                chunks.append(f"-{mono}")
            else:
                chunks.append(f"{coeff}*{mono}")
        out = " + ".join(chunks)
        return out.replace("+ -", "- ")


def _exps_add(e1: tuple, e2: tuple) -> tuple:
    return tuple(a + b for a, b in zip(e1, e2))


def _accumulate(acc: dict, rows: dict, factor: int, row_off: int = 0,
                col_off: int = 0) -> None:
    """acc += factor * rows for sparse integer matrices {row: {col: x}},
    with rows shifted by the offsets.  Mutates only rows that acc owns;
    may leave zeros, which _reduced drops."""
    unit = factor == 1
    for r, row in rows.items():
        r += row_off
        target = acc.get(r)
        if target is None:
            acc[r] = {c + col_off: x if unit else x * factor
                      for c, x in row.items()}
            continue
        for c, x in row.items():
            c += col_off
            if not unit:
                x = x * factor
            cur = target.get(c)
            target[c] = x if cur is None else cur + x


def _accumulate_product(acc: dict, left: dict, right: dict,
                        factor: int) -> None:
    """acc += factor * left @ right for sparse integer matrices, scaling
    only the left entries that meet a row of right; may leave zeros, which
    _reduced drops."""
    for r, lrow in left.items():
        arow = None
        for k, x in lrow.items():
            rrow = right.get(k)
            if rrow is None:
                continue
            if arow is None:
                arow = acc.setdefault(r, {})
            if factor != 1:
                x *= factor
            for c, y in rrow.items():
                cur = arow.get(c)
                arow[c] = x * y if cur is None else cur + x * y


def integer_product(left: dict, right: dict) -> dict:
    """left @ right for sparse integer matrices {row: {col: int}}, with no
    zero entry or empty row."""
    acc: dict = {}
    _accumulate_product(acc, left, right, 1)
    term = _reduced(1, acc)
    return {} if term is None else term[1]


def _reduced(den: int, acc: dict):
    """The canonical term (den, rows) of the matrix acc / den: zeros and
    empty rows dropped, then one gcd pass to lowest terms.  None if zero.

    An all-zero row is dropped, and only a row that holds a zero is
    rebuilt; the other rows of acc are kept as they are, so acc must own
    them."""
    rows = {}
    g = den
    for r, row in acc.items():
        if not any(row.values()):
            continue
        if 0 in row.values():
            row = {c: x for c, x in row.items() if x}
        rows[r] = row
        if g != 1:
            g = gcd(g, *row.values())
    if not rows:
        return None
    if g != 1:
        den //= g
        rows = {r: {c: x // g for c, x in row.items()}
                for r, row in rows.items()}
    return den, rows


def _column_index(left: dict, needed: set) -> dict:
    """{col: [(row, x)]} of the entries of left in the needed columns."""
    index: dict = {}
    for r, lrow in left.items():
        for k, x in lrow.items():
            if k in needed:
                index.setdefault(k, []).append((r, x))
    return index


def _accumulate_walk(acc: dict, index: dict, right: dict,
                     factor: int) -> None:
    """acc += factor * left @ right, walking the rows of right against a
    column index of left (``_column_index``); may leave zeros, which
    _reduced drops."""
    for k, rrow in right.items():
        for r, x in index.get(k, ()):
            arow = acc.get(r)
            if arow is None:
                arow = acc[r] = {}
            if factor != 1:
                x *= factor
            for c, y in rrow.items():
                cur = arow.get(c)
                arow[c] = x * y if cur is None else cur + x * y


# a right term with at most 1/_THIN as many stored rows as its left term is
# walked against a column index of the left term.  The walk pays for the
# index, so it wins only where few left entries meet a right row: the
# one-column products of kac_typicality, with row ratios of 8 and up, run
# up to twice as fast walked.  The relation checks' products have ratios
# of at most 4 and run slower walked, so they keep the row pass; every
# cut-off from 5 to 64 does that and times the same on the benchmark.
_THIN = 8


def _pencil(parts) -> dict:
    """Canonical pencil terms of a sum of scaled, shifted products.

    ``parts`` yields (exps, q, left, right, row_off, col_off) for the
    summand q * params^exps * (left @ right), where q is a nonzero rational,
    left and right are stored terms (den, rows) and right = None stands for
    the identity; the offsets shift the rows and columns of an identity
    summand.  The parts of each output exponent are brought to one common
    denominator D = lcm(q.den * den_left * den_right), so the sums run over
    ints with the multipliers q * D / (den_left * den_right).

    A product passes over every stored row of its left term, unless its
    right term is thin (``_THIN``): then one column index of the left term,
    over the columns its thin right terms need, serves all of them, and
    each product costs in proportion to the entries it meets.
    """
    groups: dict = {}
    needed: dict = {}             # id of a left term -> columns to index
    for part in parts:
        groups.setdefault(part[0], []).append(part)
        left, right = part[2], part[3]
        if right is not None and len(right[1]) * _THIN <= len(left[1]):
            needed.setdefault(id(left), set()).update(right[1])
    indexes: dict = {}
    out = {}
    for exps, group in groups.items():
        dens = [q.denominator * left[0] * (1 if right is None else right[0])
                for _, q, left, right, _, _ in group]
        common = lcm(*dens)
        acc: dict = {}
        for (_, q, left, right, row_off, col_off), den in zip(group, dens):
            factor = q.numerator * (common // den)
            if right is None:
                _accumulate(acc, left[1], factor, row_off, col_off)
            elif len(right[1]) * _THIN <= len(left[1]):
                index = indexes.get(id(left))
                if index is None:
                    index = indexes[id(left)] = _column_index(
                        left[1], needed[id(left)])
                _accumulate_walk(acc, index, right[1], factor)
            else:
                _accumulate_product(acc, left[1], right[1], factor)
        term = _reduced(common, acc)
        if term is not None:
            out[exps] = term
    return out


def combination(terms: Sequence[tuple]) -> "PolyMatrix":
    """sum_i c_i * A_i @ B_i over (c_i, A_i, B_i), computed in one
    accumulation; B_i = None stands for the identity.  The c_i are
    rationals; every product must have the shape of the first and every
    matrix its params.  A lone term (1, A, None) gives A itself: its terms
    are already canonical, and results may share terms."""
    first = terms[0]
    if len(terms) == 1 and first[2] is None and first[0] == 1:
        return first[1]
    rows = first[1].rows
    cols = first[1].cols if first[2] is None else first[2].cols
    params = first[1].params
    parts = []
    for coeff, a, b in terms:
        shape = (a.rows, a.cols) if b is None else (a.rows, b.cols)
        if a.params != params or (b is not None and b.params != params):
            raise DeclarationError("matrix parameter lists differ")
        if b is not None and a.cols != b.rows:
            raise ValueError(
                f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
        if shape != (rows, cols):
            raise ValueError("matrix shapes differ")
        coeff = rat(coeff)
        if not coeff:
            continue
        for e1, left in a.terms.items():
            if b is None:
                parts.append((e1, coeff, left, None, 0, 0))
                continue
            for e2, right in b.terms.items():
                parts.append((_exps_add(e1, e2), coeff, left, right, 0, 0))
    return PolyMatrix._of(rows, cols, params, _pencil(parts))


def kronecker_sum(size: int, base_dim: int, params: Sequence[str],
                  parts) -> "PolyMatrix":
    """sum_k W_k (x) B_k: the square matrix of size * base_dim whose block
    (i, j) of base_dim rows and columns is sum_k W_k[i][j] * B_k.

    ``parts`` yields (W, B): W a size x size rational matrix stored like a
    PolyMatrix term, as (den, {row: {col: int}}) for {row: {col: int / den}}
    (zero entries and a common factor are allowed), and B a base_dim-square
    PolyMatrix, re-declared over params.  The parts of each exponent are
    brought to one common denominator, so the whole sum is one integer
    accumulation per exponent.
    """
    params = tuple(params)
    groups: dict = {}             # exps -> [(rows of W, rows of B, den)]
    for (den, rows), B in parts:
        if (B.rows, B.cols) != (base_dim, base_dim):
            raise ValueError(f"{B.rows}x{B.cols} factor, expected "
                             f"{base_dim}x{base_dim}")
        for i, row in rows.items():
            if row and not (0 <= i < size and 0 <= min(row)
                            and max(row) < size):
                raise IndexError(f"entry of W outside {size}x{size}")
        if not rows:
            continue
        for exps, (den_b, rows_b) in B.with_params(params).terms.items():
            groups.setdefault(exps, []).append((rows, rows_b, den * den_b))
    terms = {}
    for exps, group in groups.items():
        common = lcm(*(den for _, _, den in group))
        acc: dict = {}
        for rows, rows_b, den in group:
            mult = common // den
            for i, wrow in rows.items():
                # row i of W as (column offset, multiplier) pairs
                wrow = [(j * base_dim, w * mult) for j, w in wrow.items() if w]
                if not wrow:
                    continue
                base = i * base_dim
                for r, brow in rows_b.items():
                    target = acc.get(base + r)
                    if target is None:
                        target = acc[base + r] = {}
                    for off, w in wrow:
                        for c, x in brow.items():
                            c += off
                            cur = target.get(c)
                            target[c] = w * x if cur is None else cur + w * x
        term = _reduced(common, acc)
        if term is not None:
            terms[exps] = term
    dim = size * base_dim
    return PolyMatrix._of(dim, dim, params, terms)


class PolyMatrix:
    """Sparse rows x cols matrix over ParamPoly, stored as a pencil.

    ``terms`` maps an exponent vector e to the rational matrix of the
    coefficients of params^e, stored fraction-free as one integer matrix
    over one denominator: (den, {row: {col: int}}) stands for
    {row: {col: int / den}}; the matrix is sum_e params^e * terms[e].  Each
    term has den > 0 and gcd(den, numerators) = 1, and no zero entry, empty
    row or empty term is stored, so equal matrices have equal ``terms``.
    Instances are immutable by convention: no operation mutates a stored
    dict, and results may share terms with their operands.
    """

    __slots__ = ("rows", "cols", "params", "terms")

    def __init__(self, rows: int, cols: int, params: Sequence[str],
                 entries: Mapping[tuple, ParamPoly | ScalarLike] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        params = tuple(params)
        constant = (0,) * len(params)
        terms: dict = {}
        for (r, c), val in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
            if isinstance(val, ParamPoly):
                if val.params != params:
                    raise DeclarationError(
                        "entry parameter list differs from matrix")
                items = val.terms.items()
            else:
                items = ((constant, rat(val)),)
            for exps, coeff in items:
                if coeff:
                    terms.setdefault(exps, {}).setdefault(r, {})[c] = coeff
        for exps, fractions in terms.items():
            # over the lcm of reduced denominators the numerators are coprime
            den = lcm(*(x.denominator for row in fractions.values()
                        for x in row.values()))
            terms[exps] = (den, {
                r: {c: x.numerator * (den // x.denominator)
                    for c, x in row.items()}
                for r, row in fractions.items()})
        self._init(rows, cols, params, terms)

    def _init(self, rows, cols, params, terms):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _of(cls, rows: int, cols: int, params: tuple,
            terms: dict) -> "PolyMatrix":
        """Wrap terms that are already canonical, without copying."""
        out = object.__new__(cls)
        out._init(rows, cols, params, terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, params: Sequence[str]) -> "PolyMatrix":
        return cls(rows, cols, params, {})

    @classmethod
    def identity(cls, n: int, params: Sequence[str]) -> "PolyMatrix":
        params = tuple(params)
        terms = {(0,) * len(params): (1, {i: {i: 1} for i in range(n)})} \
            if n else {}
        return cls._of(n, n, params, terms)

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], params: Sequence[str] = ()) -> "PolyMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, val in enumerate(row):
                entries[(r, c)] = val
        return cls(rows, cols, params, entries)

    @classmethod
    def from_blocks(cls, rows: int, cols: int, params: Sequence[str],
                    blocks) -> "PolyMatrix":
        """Sum of scaled blocks placed at offsets, in one accumulation:
        ``blocks`` yields (row offset, col offset, PolyMatrix) or (row
        offset, col offset, PolyMatrix, q) for q times the block, q a
        rational; each block is re-declared over params."""
        params = tuple(params)
        parts = []
        for row_off, col_off, block, *scale in blocks:
            if not (0 <= row_off and row_off + block.rows <= rows
                    and 0 <= col_off and col_off + block.cols <= cols):
                raise IndexError(
                    f"{block.rows}x{block.cols} block at ({row_off},{col_off}) "
                    f"outside {rows}x{cols}")
            q = rat(scale[0]) if scale else 1
            if q:
                parts.extend(
                    (exps, q, term, None, row_off, col_off)
                    for exps, term in block.with_params(params).terms.items())
        return cls._of(rows, cols, params, _pencil(parts))

    # -- entry views ---------------------------------------------------------

    @property
    def entries(self) -> dict:
        """Read-only view {(row, col): ParamPoly} of the nonzero entries,
        rebuilt on every access."""
        polys: dict = {}
        for exps, (den, rows) in self.terms.items():
            for r, row in rows.items():
                for c, x in row.items():
                    polys.setdefault((r, c), {})[exps] = Fraction(x, den)
        return {pos: ParamPoly._of(self.params, terms)
                for pos, terms in polys.items()}

    def entry(self, r: int, c: int) -> ParamPoly:
        terms = {}
        for exps, (den, rows) in self.terms.items():
            x = rows.get(r, {}).get(c)
            if x is not None:
                terms[exps] = Fraction(x, den)
        return ParamPoly._of(self.params, terms)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "PolyMatrix":
        """The len(rows) x len(cols) matrix of the entries (rows[i], cols[j]);
        the index lists may reorder but not repeat."""
        col_at = {c: j for j, c in enumerate(cols)}
        if len(set(rows)) != len(rows) or len(col_at) != len(cols):
            raise ValueError("submatrix index lists repeat an index")
        if not all(0 <= r < self.rows for r in rows) \
                or not all(0 <= c < self.cols for c in cols):
            raise IndexError(f"submatrix index outside {self.rows}x{self.cols}")
        terms = {}
        for exps, (den, stored) in self.terms.items():
            picked = {}
            for i, r in enumerate(rows):
                row = stored.get(r)
                if row:
                    picked[i] = {col_at[c]: x for c, x in row.items()
                                 if c in col_at}
            term = _reduced(den, picked)
            if term is not None:
                terms[exps] = term
        return PolyMatrix._of(len(rows), len(cols), self.params, terms)

    @classmethod
    def from_term(cls, rows: int, cols: int, params: Sequence[str],
                  term: tuple) -> "PolyMatrix":
        """The parameter-free matrix of an integer term (den, {row: {col:
        int}}), which stands for {row: {col: int / den}}: the inverse of
        ``integer_term``.  Zero entries and a common factor are allowed;
        the rows must be new dicts, as the matrix may keep them."""
        params = tuple(params)
        for r, row in term[1].items():
            if row and not (0 <= r < rows and 0 <= min(row)
                            and max(row) < cols):
                raise IndexError(f"entry in row {r} outside {rows}x{cols}")
        term = _reduced(*term)
        return cls._of(rows, cols, params,
                       {} if term is None else {(0,) * len(params): term})

    def integer_term(self) -> tuple:
        """The stored term (den, {row: {col: int}}) of a parameter-free
        matrix; ParameterizedEntryError if an entry holds a parameter."""
        constant = (0,) * len(self.params)
        symbolic = {e: term for e, term in self.terms.items() if e != constant}
        if symbolic:
            (r, c), _ = PolyMatrix._of(self.rows, self.cols, self.params,
                                       symbolic).first_nonzero()
            raise ParameterizedEntryError(
                f"entry ({r},{c}) = {self.entry(r, c)} is not a pure rational; "
                "substitute parameters before solving")
        return self.terms.get(constant, (1, {}))

    def rational_entries(self) -> dict:
        """{(row, col): Fraction} of the nonzero entries of a parameter-free
        matrix, read off its constant term."""
        den, rows = self.integer_term()
        return {(r, c): Fraction(x, den)
                for r, row in rows.items() for c, x in row.items()}

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return combination([(1, self, None), (1, other, None)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return combination([(1, self, None), (-1, other, None)])

    def __neg__(self) -> "PolyMatrix":
        return combination([(-1, self, None)])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return combination([(1, self, other)])

    def scale(self, factor) -> "PolyMatrix":
        """factor * self for a rational or a ParamPoly over the same params."""
        if not isinstance(factor, ParamPoly):
            return combination([(factor, self, None)])
        if factor.params != self.params:
            raise DeclarationError("parameter lists differ")
        return PolyMatrix._of(self.rows, self.cols, self.params, _pencil(
            (_exps_add(exps, ef), f, term, None, 0, 0)
            for ef, f in factor.terms.items()
            for exps, term in self.terms.items()))

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    # -- maps on the exponent vectors ----------------------------------------

    def _index(self, name: str) -> int:
        if name not in self.params:
            raise DeclarationError(f"parameter {name!r} not declared")
        return self.params.index(name)

    def substitute(self, bindings: Mapping[str, ScalarLike]) -> "PolyMatrix":
        """Exact partial evaluation; unbound parameters stay symbolic."""
        values = {self._index(n): rat(v) for n, v in bindings.items()}
        parts = []
        for exps, term in self.terms.items():
            factor = Fraction(1)
            new = list(exps)
            for idx, val in values.items():
                factor *= val ** exps[idx]
                new[idx] = 0
            if factor:
                parts.append((tuple(new), factor, term, None, 0, 0))
        return PolyMatrix._of(self.rows, self.cols, self.params,
                              _pencil(parts))

    def derivative(self, name: str) -> "PolyMatrix":
        """Exact formal partial derivative with respect to one parameter."""
        idx = self._index(name)
        return PolyMatrix._of(self.rows, self.cols, self.params, _pencil(
            (exps[:idx] + (exps[idx] - 1,) + exps[idx + 1:], exps[idx], term,
             None, 0, 0)
            for exps, term in self.terms.items() if exps[idx]))

    def coefficient(self, name: str, power: int) -> "PolyMatrix":
        """Coefficient matrix of ``name**power`` (over the same params)."""
        idx = self._index(name)
        terms = {exps[:idx] + (0,) + exps[idx + 1:]: rows
                 for exps, rows in self.terms.items() if exps[idx] == power}
        return PolyMatrix._of(self.rows, self.cols, self.params, terms)

    def with_params(self, params: Sequence[str]) -> "PolyMatrix":
        """Re-declare over a different parameter list.

        New names embed freely; a dropped name must not actually occur.
        """
        params = tuple(params)
        if params == self.params:
            return self
        for name in self.params:
            if name not in params and self.degree(name) > 0:
                raise DeclarationError(
                    f"cannot drop {name!r}: it occurs with positive degree")
        slots = [self.params.index(name) if name in self.params else None
                 for name in params]
        terms = {tuple(0 if s is None else exps[s] for s in slots): rows
                 for exps, rows in self.terms.items()}
        return PolyMatrix._of(self.rows, self.cols, params, terms)

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, name: str) -> int:
        """Exact degree in one parameter (the zero matrix has degree 0)."""
        idx = self._index(name)
        return max((exps[idx] for exps in self.terms), default=0)

    @property
    def is_constant(self) -> bool:
        return not any(any(exps) for exps in self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.params == other.params
                and self.terms == other.terms)

    def first_nonzero(self):
        """The nonzero entry with the least (row, col), or None."""
        if not self.terms:
            return None
        r = min(min(rows) for _, rows in self.terms.values())
        c = min(min(rows[r]) for _, rows in self.terms.values() if r in rows)
        return (r, c), self.entry(r, c)

    def __repr__(self):
        nonzero = {(r, c) for _, rows in self.terms.values()
                   for r, row in rows.items() for c in row}
        return f"PolyMatrix({self.rows}x{self.cols}, {len(nonzero)} entries)"


# -- exact rational elimination ------------------------------------------

def echelon_insert(echelon: dict, row: Mapping[int, ScalarLike]) -> dict | None:
    """Reduce a sparse rational row {col: x} against an echelon form.

    ``echelon`` maps the leading column of each stored row to that row, a
    primitive integer row {col: int} whose entries all lie at or right of
    its leading column.  The row is scaled to integers and its leading
    entry eliminated, fraction-free, while a stored row leads there.  A
    nonzero remainder is made primitive, stored under its leading column
    and returned; a row in the span of the stored rows gives None.
    """
    den = lcm(*(x.denominator for x in row.values()))
    vec = {c: x.numerator * (den // x.denominator)
           for c, x in row.items() if x}
    while vec:
        lead = min(vec)
        pivot_row = echelon.get(lead)
        if pivot_row is None:
            echelon[lead] = vec = _primitive(vec)
            return vec
        vec = _eliminate(vec, pivot_row, lead)
    return None


def _primitive(vec: dict) -> dict:
    """vec divided by the gcd of its entries."""
    g = gcd(*vec.values())
    return vec if g == 1 else {c: x // g for c, x in vec.items()}


def _eliminate(vec: dict, pivot_row: dict, col: int) -> dict:
    """a * vec - b * pivot_row with a/b = pivot_row[col]/vec[col] in lowest
    terms, so that the result has no entry at col."""
    p, x = pivot_row[col], vec[col]
    g = gcd(p, x)
    a, b = p // g, x // g
    out = {c: a * v for c, v in vec.items()} if a != 1 else dict(vec)
    for c, y in pivot_row.items():
        acc = out.get(c, 0) - b * y
        if acc:
            out[c] = acc
        else:
            del out[c]
    return out


def integer_rref(rows) -> tuple:
    """Reduced row echelon form of sparse rational rows {col: x}, kept on
    integers.

    Every row goes through ``echelon_insert``; the stored rows are then
    back-substituted, last pivot first, over the integers.  Returns
    (pivots, rows): the pivot columns in increasing order and, for each,
    the primitive integer row {col: int} with a positive entry at its
    pivot and a zero at every other pivot, so that row k divided by
    rows[k][pivots[k]] is row k of the RREF.  Both are unique: they do not
    depend on the order or the scaling of the input rows.
    """
    return _integer_rref(rows)


def _integer_rref(rows) -> tuple:
    """The elimination kernel of ``integer_rref`` and ``rref``, so that
    each public call is one elimination."""
    echelon: dict = {}
    for row in rows:
        echelon_insert(echelon, row)
    pivots = sorted(echelon)
    for lead in reversed(pivots):
        vec = echelon[lead]
        for col in [c for c in vec if c != lead and c in echelon]:
            vec = _eliminate(vec, echelon[col], col)
        vec = _primitive(vec)
        echelon[lead] = vec if vec[lead] > 0 else \
            {c: -x for c, x in vec.items()}
    return pivots, [echelon[lead] for lead in pivots]


def rref(rows) -> tuple:
    """Reduced row echelon form of sparse rational rows {col: x}, read off
    the integer form of ``integer_rref``.  Returns (pivots, reduced): the
    pivot columns in increasing order and the nonzero rows {col: Fraction}
    of the RREF, row k with a 1 at pivots[k].
    """
    pivots, rows = _integer_rref(rows)
    return pivots, [{c: Fraction(x, row[lead]) for c, x in row.items()}
                    for lead, row in zip(pivots, rows)]


class SolveResult(Record):
    rank: int
    nullspace: tuple           # tuple of tuples of Fractions (right nullspace basis)


def nullspace(pivots: Sequence[int], reduced: Sequence[dict],
              cols: int) -> tuple:
    """The right-nullspace basis read off an RREF (pivots, reduced) as
    ``rref`` returns it, for rows of cols columns: one vector per free
    column, a tuple of Fractions with a 1 there."""
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for pc, row in zip(pivots, reduced):
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return tuple(basis)


def rational_linear_solve(m: PolyMatrix) -> SolveResult:
    """Exact rank and right-nullspace basis of a parameter-free matrix, read
    off the RREF of its integer rows."""
    pivots, reduced = rref(m.integer_term()[1].values())
    return SolveResult(rank=len(pivots),
                       nullspace=nullspace(pivots, reduced, m.cols))


def extract_rational_roots(poly: ParamPoly, name: str):
    """Rational root multiset of a univariate polynomial in ``name``.

    The polynomial must involve no other parameter.  Returns a sorted list of
    (root, multiplicity) pairs together with the parameter-free cofactor that
    remains after peeling all rational roots off.
    """
    for other in poly.params:
        if other != name and poly.degree(other) > 0:
            raise ParameterizedEntryError(
                f"{poly} involves {other!r}; not univariate in {name!r}")
    if poly.is_zero:
        raise ValueError("zero polynomial has no well-defined root multiset")
    idx = poly.params.index(name)
    coeffs = {exps[idx]: c for exps, c in poly.terms.items()}
    deg = max(coeffs)
    dense = [coeffs.get(i, Fraction(0)) for i in range(deg + 1)]

    def divisors(k: int):
        """Positive divisors of k in ascending order, from its factorization
        by trial division ([1] for k = 0)."""
        k = abs(k)
        out = [1]
        p = 2
        while p * p <= k:
            if k % p == 0:
                power = 0
                while k % p == 0:
                    k //= p
                    power += 1
                out = [d * p ** i for d in out for i in range(power + 1)]
            p += 1
        if k > 1:
            out += [d * k for d in out]
        return sorted(out)

    roots = []
    while len(dense) > 1:
        # strip powers of the variable (roots at 0)
        if dense[0] == 0:
            roots.append(Fraction(0))
            dense = dense[1:]
            continue
        scale = lcm(*(c.denominator for c in dense))
        ints = [int(c * scale) for c in dense]
        found = None
        for q in divisors(ints[-1]):
            for p in divisors(ints[0]):
                for sign in (1, -1):
                    cand = Fraction(sign * p, q)
                    if _eval_dense(dense, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        dense = _deflate(dense, found)
    cofactor_terms = {}
    for power, c in enumerate(dense):
        if c:
            exps = [0] * len(poly.params)
            exps[idx] = power
            cofactor_terms[tuple(exps)] = c
    cofactor = ParamPoly(poly.params, cofactor_terms)
    counted = {}
    for r in roots:
        counted[r] = counted.get(r, 0) + 1
    return sorted(counted.items()), cofactor


def _eval_dense(dense, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(dense):
        acc = acc * x + c
    return acc


def _deflate(dense, root: Fraction):
    """Synthetic division of a dense coefficient list by (x - root)."""
    out = [Fraction(0)] * (len(dense) - 1)
    carry = Fraction(0)
    for i in range(len(dense) - 1, 0, -1):
        carry = dense[i] + carry * root
        out[i - 1] = carry
    assert dense[0] + carry * root == 0, "deflation by a non-root"
    return out
