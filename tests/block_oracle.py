"""Block matrices placed entry by entry, the oracle for the block layouts
that ``exact.kronecker_sum`` and the lowering-rank stack assemble.

The entries are added up in ParamPolys and stored by the validating
``PolyMatrix`` constructor, so no pencil accumulation of ``exact`` runs in
the placement.
"""

from superkac.exact import ParamPoly, PolyMatrix


def place_blocks(rows: int, cols: int, params, blocks) -> PolyMatrix:
    """The rows x cols sum of q * block placed at (row offset, col offset)
    over ``blocks`` of (row offset, col offset, block, q), q a rational,
    with each block re-declared over params."""
    params = tuple(params)
    entries: dict = {}
    for row_off, col_off, block, q in blocks:
        for (r, c), v in block.with_params(params).entries.items():
            pos = (r + row_off, c + col_off)
            entries[pos] = entries.get(pos, ParamPoly.zero(params)) + v * q
    return PolyMatrix(rows, cols, params, entries)
