"""Block matrices placed entry by entry, the oracle for the block layouts
that ``exact.kronecker_sum`` and the lowering-rank stack assemble, and
matrices re-declared over other params entry by entry.

The entries are added up in ParamPolys and stored by the validating
``PolyMatrix`` constructor, so no pencil accumulation of ``exact`` runs in
the placement.  ``block_matrices`` gives every block matrix of a
replication or twist as the program builds it, for the tests that read
the whole set, and ``jordan_minpoly_profile`` computes a Jordan profile
on the block matrix, the oracle of the one ``matryoshka.jordan_profile``
reads off the coupling matrix.
"""

from collections.abc import Mapping
from fractions import Fraction

from superkac.algebra import GenLabel, InternalConsistencyError
from superkac.exact import ParamPoly, PolyMatrix, combination, integer_product
from superkac.kacmod import weight_spaces
from superkac.matryoshka import ReplicatedModule


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


def block_matrices(module, labels=None) -> dict:
    """The block matrices I (x) A + C (x) B of a replication or twist, as
    ``ReplicatedModule.block_matrix`` builds them, for the given labels and
    by default for the whole generator surface: the full set of blocks,
    which no verb builds, for the tests that read it."""
    D = module.deformation
    return {label: module.block_matrix(D.A[label], D.B[label])
            for label in (module.base.matrices if labels is None
                          else labels)}


def superdiagonal(values) -> PolyMatrix:
    """The parameter-free square matrix with values on its first
    superdiagonal, placed entry by entry: a coupling matrix C, zeros
    allowed."""
    N = len(values) + 1
    return PolyMatrix(N, N, (), {(t, t + 1): Fraction(x)
                                 for t, x in enumerate(values)})


def cartan_matrix_of(module, h_coeffs: Mapping[GenLabel, Fraction]) -> PolyMatrix:
    """Matrix of a Cartan combination sum h_coeffs[label] * label; a block
    module builds only the labels of h_coeffs."""
    mats = block_matrices(module, h_coeffs) \
        if isinstance(module, ReplicatedModule) else module.matrices
    return combination([(coeff, mats[label], None)
                        for label, coeff in h_coeffs.items()])


def jordan_minpoly_profile(module, bindings: Mapping[str, Fraction],
                           h_coeffs: Mapping[GenLabel, Fraction]) -> dict:
    """Exact minimal polynomial degree of the Cartan element h_coeffs on
    every generalized weight space, after binding the symbolic parameters.

    The degree is the nilpotency index of the restriction minus its scalar
    part; for an N-fold replication with all couplings nonzero it equals N
    for the hypercharge wherever the base multiplicity is nonzero.
    """
    # weight_spaces raises ParameterizedEntryError unless every parameter
    # is bound, and integer_term unless the matrix is then rational
    _, stored = cartan_matrix_of(module, h_coeffs).substitute(
        bindings).integer_term()
    profile = {}
    for key, cols in weight_spaces(module, bindings).items():
        # the block minus its scalar part, the common diagonal value the
        # weight space carries, times the matrix's denominator, which does
        # not change its nilpotency index
        at = {c: j for j, c in enumerate(cols)}
        eigen = stored.get(cols[0], {}).get(cols[0], 0)
        nil = {}
        for i, r in enumerate(cols):
            row = {at[c]: x for c, x in stored.get(r, {}).items() if c in at}
            row[i] = row.get(i, 0) - eigen
            row = {j: x for j, x in row.items() if x}
            if row:
                nil[i] = row
        degree = 1
        power = nil
        while power:
            degree += 1
            if degree > len(cols):
                raise InternalConsistencyError(
                    "Cartan element is not nilpotent minus scalar on a "
                    "generalized weight space")
            power = integer_product(power, nil)
        profile[key] = degree
    return profile
