"""Dense Fraction elimination, kept as the oracle for ``exact.integer_rref``.

These are the solves the sparse fraction-free kernel replaced: an in-place
RREF on dense Fraction rows, the rank and nullspace read off it, and a
reusable solver for a fixed full-column-rank matrix.  Tests that check a
result of the kernel compute their expected values with these, so no
oracle runs on the kernel it checks.
"""

from fractions import Fraction
from typing import Sequence


def dense_rref(rows: list, ncols: int):
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


def dense_rows(rows, ncols: int) -> list:
    """Sparse rows {col: x} as dense Fraction rows of ncols entries."""
    return [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]


def dense_linear_solve(entries: dict, nrows: int, ncols: int):
    """(rank, nullspace) of the matrix {(row, col): x}, by ``dense_rref``:
    one nullspace vector per free column, as a tuple of Fractions."""
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for (r, c), x in entries.items():
        rows[r][c] = Fraction(x)
    pivots = dense_rref(rows, ncols)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(tuple(vec))
    return len(pivots), tuple(basis)


class ExactSolver:
    """Reusable exact solver for A x = b with a fixed full-column-rank A."""

    def __init__(self, columns: Sequence[Sequence[Fraction]]):
        """columns: list of column vectors (each a sequence of Fractions)."""
        self.ncols = len(columns)
        self.nrows = len(columns[0]) if self.ncols else 0
        # Row-reduce [A | I]: the right block becomes the transform T with
        # T A in RREF, so each solve is a product T @ target.
        rows = [[columns[c][r] for c in range(self.ncols)] +
                [Fraction(1) if j == r else Fraction(0) for j in range(self.nrows)]
                for r in range(self.nrows)]
        self.pivots = dense_rref(rows, self.ncols)
        if len(self.pivots) != self.ncols:
            raise ValueError("columns are linearly dependent")
        # the nonzeros {row: x} of each column of T
        self.transform = [{} for _ in range(self.nrows)]
        for r, row in enumerate(rows):
            for j, x in enumerate(row[self.ncols:]):
                if x:
                    self.transform[j][r] = x

    def solve(self, target: Sequence[Fraction]):
        """Return x with A x = target, or None if the system is inconsistent.
        Only the nonzero entries of target are read."""
        if len(target) != self.nrows:
            raise ValueError("target length mismatch")
        transformed: dict = {}
        for j, t in enumerate(target):
            if t:
                for r, x in self.transform[j].items():
                    cur = transformed.get(r)
                    transformed[r] = x * t if cur is None else cur + x * t
        rank = len(self.pivots)
        if any(v for r, v in transformed.items() if r >= rank):
            return None
        x = [Fraction(0)] * self.ncols
        for i, pc in enumerate(self.pivots):
            x[pc] = transformed.get(i, x[pc])
        return x
