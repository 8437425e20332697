"""Exact scalar and linear-algebra substrate.

Scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms with positive denominator).  On top of that sit sparse multivariate
polynomials in a declared tuple of named parameters (``ParamPoly``), sparse
matrices over them (``PolyMatrix``), and exact rational Gaussian elimination
with a deterministic pivot rule.

No floating point enters anywhere; every identity checked downstream is a
bit-exact statement about these objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

Rational = Fraction

ScalarLike = Union[int, Fraction]


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

    def __add__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, Fraction(0)) + coeff
            if acc == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = acc
        return ParamPoly(self.params, terms)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.params, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ParamPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "ParamPoly":
        if not isinstance(other, ParamPoly):
            other = rat(other)
            if other == 0:
                return ParamPoly.zero(self.params)
            return ParamPoly(self.params,
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
        return ParamPoly(self.params, terms)

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

    def with_params(self, params: Sequence[str]) -> "ParamPoly":
        """Re-declare over a different parameter list.

        New names embed freely; a dropped name must not actually occur.
        """
        params = tuple(params)
        positions = []
        for idx, name in enumerate(self.params):
            if name in params:
                positions.append((idx, params.index(name)))
            elif self.degree(name) > 0:
                raise DeclarationError(
                    f"cannot drop {name!r}: it occurs with positive degree")
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(params)
            for src, dst in positions:
                new[dst] = exps[src]
            terms[tuple(new)] = coeff
        return ParamPoly(params, terms)

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
        if self._hash is None:
            object.__setattr__(
                self, "_hash",
                hash((self.params, tuple(sorted(self.terms.items())))))
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


class PolyMatrix:
    """Sparse rows x cols matrix with ParamPoly entries (no stored zeros)."""

    __slots__ = ("rows", "cols", "params", "entries")

    def __init__(self, rows: int, cols: int, params: Sequence[str],
                 entries: Mapping[tuple, ParamPoly] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "params", tuple(params))
        clean = {}
        for (r, c), val in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
            if not isinstance(val, ParamPoly):
                val = ParamPoly.const(self.params, val)
            if val.params != self.params:
                raise DeclarationError("entry parameter list differs from matrix")
            if not val.is_zero:
                clean[(r, c)] = val
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, params: Sequence[str]) -> "PolyMatrix":
        return cls(rows, cols, params, {})

    @classmethod
    def identity(cls, n: int, params: Sequence[str]) -> "PolyMatrix":
        one = ParamPoly.const(params, 1)
        return cls(n, n, params, {(i, i): one for i in range(n)})

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], params: Sequence[str] = ()) -> "PolyMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, val in enumerate(row):
                if not isinstance(val, ParamPoly):
                    val = ParamPoly.const(params, val)
                if not val.is_zero:
                    entries[(r, c)] = val
        return cls(rows, cols, params, entries)

    def entry(self, r: int, c: int) -> ParamPoly:
        return self.entries.get((r, c), ParamPoly.zero(self.params))

    # -- arithmetic ---------------------------------------------------------

    def _check_shape(self, other: "PolyMatrix", mul: bool = False):
        if self.params != other.params:
            raise DeclarationError("matrix parameter lists differ")
        if mul:
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        elif (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other)
        entries = dict(self.entries)
        for pos, val in other.entries.items():
            acc = entries.get(pos)
            acc = val if acc is None else acc + val
            if acc.is_zero:
                entries.pop(pos, None)
            else:
                entries[pos] = acc
        return PolyMatrix(self.rows, self.cols, self.params, entries)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, self.params,
                          {pos: -val for pos, val in self.entries.items()})

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other, mul=True)
        by_row: dict = {}
        for (r, c), val in other.entries.items():
            by_row.setdefault(r, []).append((c, val))
        acc: dict = {}
        for (r, k), left in self.entries.items():
            for c, right in by_row.get(k, ()):
                pos = (r, c)
                prod = left * right
                cur = acc.get(pos)
                cur = prod if cur is None else cur + prod
                if cur.is_zero:
                    acc.pop(pos, None)
                else:
                    acc[pos] = cur
        return PolyMatrix(self.rows, other.cols, self.params, acc)

    def scale(self, factor) -> "PolyMatrix":
        if not isinstance(factor, ParamPoly):
            factor = ParamPoly.const(self.params, factor)
        if factor.is_zero:
            return PolyMatrix.zeros(self.rows, self.cols, self.params)
        return PolyMatrix(self.rows, self.cols, self.params,
                          {pos: val * factor for pos, val in self.entries.items()})

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    # -- entrywise maps ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, ScalarLike]) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, self.params,
                          {pos: val.substitute(bindings)
                           for pos, val in self.entries.items()})

    def derivative(self, name: str) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, self.params,
                          {pos: val.derivative(name)
                           for pos, val in self.entries.items()})

    def coefficient(self, name: str, power: int) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, self.params,
                          {pos: val.coefficient(name, power)
                           for pos, val in self.entries.items()})

    def with_params(self, params: Sequence[str]) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, params,
                          {pos: val.with_params(params)
                           for pos, val in self.entries.items()})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def degree(self, name: str) -> int:
        return max((val.degree(name) for val in self.entries.values()), default=0)

    @property
    def is_constant(self) -> bool:
        return all(val.is_constant for val in self.entries.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.params == other.params
                and self.entries == other.entries)

    def first_nonzero(self):
        """Deterministic locator of one nonzero entry, or None."""
        if not self.entries:
            return None
        pos = min(self.entries)
        return pos, self.entries[pos]

    def column(self, c: int) -> dict:
        return {r: val for (r, cc), val in self.entries.items() if cc == c}

    def apply(self, vec: Mapping[int, ParamPoly]) -> dict:
        """Apply to a sparse column vector {index: ParamPoly}."""
        out: dict = {}
        for (r, c), val in self.entries.items():
            x = vec.get(c)
            if x is None:
                continue
            acc = out.get(r)
            prod = val * x
            acc = prod if acc is None else acc + prod
            if acc.is_zero:
                out.pop(r, None)
            else:
                out[r] = acc
        return out

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def block_matrix(grid: Sequence[Sequence[PolyMatrix | None]],
                 row_sizes: Sequence[int], col_sizes: Sequence[int],
                 params: Sequence[str]) -> PolyMatrix:
    """Assemble a block matrix; None blocks are zero."""
    row_off = [0]
    for s in row_sizes:
        row_off.append(row_off[-1] + s)
    col_off = [0]
    for s in col_sizes:
        col_off.append(col_off[-1] + s)
    entries = {}
    for bi, row in enumerate(grid):
        for bj, block in enumerate(row):
            if block is None:
                continue
            if block.rows != row_sizes[bi] or block.cols != col_sizes[bj]:
                raise ValueError("block shape mismatch")
            for (r, c), val in block.entries.items():
                entries[(row_off[bi] + r, col_off[bj] + c)] = val.with_params(params)
    return PolyMatrix(row_off[-1], col_off[-1], params, entries)


# -- exact rational elimination ------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    rank: int
    nullspace: tuple           # tuple of tuples of Fractions (right nullspace basis)


def _rref(rows: list, ncols: int):
    """In-place RREF on a list of Fraction rows.

    Pivot rule: scan columns left to right, pick the lowest-index row with a
    nonzero entry.  Returns the ordered list of pivot columns.
    """
    pivots = []
    pr = 0
    nrows = len(rows)
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if rows[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = Fraction(1) / rows[pr][pc]
        if inv != 1:
            rows[pr] = [x * inv for x in rows[pr]]
        for r in range(nrows):
            if r == pr:
                continue
            f = rows[r][pc]
            if f == 0:
                continue
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return pivots


def rational_linear_solve(m: PolyMatrix) -> SolveResult:
    """Exact rank and right-nullspace basis of a parameter-free matrix."""
    rows = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (r, c), val in m.entries.items():
        if not val.is_constant:
            raise ParameterizedEntryError(
                f"entry ({r},{c}) = {val} is not a pure rational; "
                "substitute parameters before solving")
        rows[r][c] = val.constant_value()
    pivots = _rref(rows, m.cols)
    rank = len(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * m.cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(tuple(vec))
    return SolveResult(rank=rank, nullspace=tuple(basis))


class ExactSolver:
    """Reusable exact solver for A x = b with a fixed full-column-rank A."""

    def __init__(self, columns: Sequence[Sequence[Fraction]]):
        """columns: list of column vectors (each a sequence of Fractions)."""
        self.ncols = len(columns)
        self.nrows = len(columns[0]) if self.ncols else 0
        # Work on [A | I] transposed bookkeeping: store augmented rows of A
        # with an identity transform so each solve is a matrix-vector product.
        rows = [[columns[c][r] for c in range(self.ncols)] +
                [Fraction(1) if j == r else Fraction(0) for j in range(self.nrows)]
                for r in range(self.nrows)]
        self.pivots = _rref(rows, self.ncols)
        self.rows = rows
        if len(self.pivots) != self.ncols:
            raise ValueError("columns are linearly dependent")

    def solve(self, target: Sequence[Fraction]):
        """Return x with A x = target, or None if the system is inconsistent."""
        if len(target) != self.nrows:
            raise ValueError("target length mismatch")
        transformed = []
        for row in self.rows:
            acc = Fraction(0)
            for j in range(self.nrows):
                t = target[j]
                if t:
                    acc += row[self.ncols + j] * t
            transformed.append(acc)
        x = [Fraction(0)] * self.ncols
        for i, pc in enumerate(self.pivots):
            x[pc] = transformed[i]
        for r in range(len(self.pivots), self.nrows):
            if transformed[r] != 0:
                return None
        return x


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
        k = abs(k)
        out = [d for d in range(1, k + 1) if k % d == 0]
        return out or [1]

    roots = []
    while len(dense) > 1:
        # strip powers of the variable (roots at 0)
        if dense[0] == 0:
            roots.append(Fraction(0))
            dense = dense[1:]
            continue
        scale = 1
        for c in dense:
            scale = scale * c.denominator // _gcd(scale, c.denominator)
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


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a) or 1


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
