"""Block matrices placed entry by entry, the oracle for the block layouts
that ``exact.kronecker_sum`` and the lowering-rank stack assemble, and
matrices re-declared over other params entry by entry.

The entries are added up in ParamPolys and stored by the validating
``PolyMatrix`` constructor, so no pencil accumulation of ``exact`` runs in
the placement.  ``block_matrices`` gives every block matrix of a
replication or twist as the program builds it, for the tests that read
the whole set.
"""

from superkac.exact import ParamPoly, PolyMatrix


def part_over(mat: PolyMatrix, params, powers=None) -> PolyMatrix:
    """The part of mat in which each name of ``powers`` has that power,
    with those names at power 0, over ``params``, built entry by entry.
    A name of params that mat lacks enters at power 0; any other name of
    mat left out of params must not occur."""
    params, powers = tuple(params), powers or {}
    entries = {}
    for pos, value in mat.entries.items():
        terms = {}
        for exps, coeff in value.terms.items():
            power = dict(zip(mat.params, exps))
            if any(power[name] != p for name, p in powers.items()):
                continue
            if any(power[name] for name in mat.params
                   if name not in params and name not in powers):
                raise ValueError(f"{mat.params} -> {params} drops a "
                                 "parameter that occurs")
            terms[tuple(0 if name in powers else power.get(name, 0)
                        for name in params)] = coeff
        entries[pos] = ParamPoly(params, terms)
    return PolyMatrix(mat.rows, mat.cols, params, entries)


def place_blocks(rows: int, cols: int, params, blocks) -> PolyMatrix:
    """The rows x cols sum of q * block placed at (row offset, col offset)
    over ``blocks`` of (row offset, col offset, block, q), q a rational,
    with each block re-declared over params."""
    params = tuple(params)
    entries: dict = {}
    for row_off, col_off, block, q in blocks:
        for (r, c), v in part_over(block, params).entries.items():
            pos = (r + row_off, c + col_off)
            entries[pos] = entries.get(pos, ParamPoly.zero(params)) + v * q
    return PolyMatrix(rows, cols, params, entries)


def block_matrices(module) -> dict:
    """Every generator's block matrix of a replication or twist, built by
    ``Deformation.materialize``: the full set of blocks, which no verb
    builds, for the tests that read it."""
    return module.deformation.materialize(module.couplings)
