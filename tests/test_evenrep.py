"""Even-subalgebra irreps: the Gelfand-Tsetlin construction against the
Weyl oracle, against two Shapovalov constructions (on Verma words, and the
level-by-level recursion on Fraction coordinates), against the even
relations and against an irreducibility test."""

import itertools
from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

import pytest

from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              RootDatum, StructureConstants, SuperAlgebraSpec,
                              build_fundamental_rep, check_super_relations,
                              module_params, structure_constants,
                              validate_even_labels, weight_from_labels)
from superkac import evenrep, exact
from superkac.evenrep import (EvenModule, build_even_irrep,
                              labels_to_hypercharge, weyl_dimension)
from dense_oracles import ExactSolver, dense_rref
from superkac.exact import ParamPoly, PolyMatrix, integer_rref, nullspace
from superkac.record import Record


# -- the reference: every Gram entry and every e/f coordinate by expanding ---
# -- e-chains through Verma words, then an ExactSolver solve per state -------

class _VermaWords:
    """Raising/lowering calculus on words in the simple lowering generators."""

    def __init__(self, cartan: Sequence[Sequence[int]], labels: Sequence[int]):
        self.cartan = cartan
        self.labels = labels
        self.rank = len(labels)
        self._e_cache: dict = {}

    def h_eigen(self, i: int, content: Sequence[int]) -> int:
        """Eigenvalue of h_i on any word of the given content."""
        return self.labels[i] - sum(self.cartan[i][j] * content[j]
                                    for j in range(self.rank))

    def content_of(self, word: tuple) -> tuple:
        content = [0] * self.rank
        for j in word:
            content[j] += 1
        return tuple(content)

    def apply_e(self, i: int, word: tuple) -> dict:
        """e_i acting on a word state, as a dict of shorter words."""
        key = (i, word)
        cached = self._e_cache.get(key)
        if cached is not None:
            return cached
        out: dict = {}
        if word:
            head, rest = word[0], word[1:]
            for w, coeff in self.apply_e(i, rest).items():
                new = (head,) + w
                out[new] = out.get(new, Fraction(0)) + coeff
            if head == i:
                h_val = self.h_eigen(i, self.content_of(rest))
                if h_val:
                    out[rest] = out.get(rest, Fraction(0)) + h_val
            out = {w: c for w, c in out.items() if c != 0}
        self._e_cache[key] = out
        return out

    def apply_e_state(self, i: int, state: Mapping[tuple, Fraction]) -> dict:
        out: dict = {}
        for word, coeff in state.items():
            for w, c in self.apply_e(i, word).items():
                acc = out.get(w, Fraction(0)) + coeff * c
                if acc == 0:
                    out.pop(w, None)
                else:
                    out[w] = acc
        return out

    def pairing(self, word: tuple, state: Mapping[tuple, Fraction]) -> Fraction:
        """Contravariant form <word L, state> via raising through the word."""
        current = dict(state)
        for j in word:
            current = self.apply_e_state(j, current)
            if not current:
                return Fraction(0)
        return current.get((), Fraction(0))


def reference_build_even_irrep(datum: RootDatum, a: Sequence[int],
                               sc: StructureConstants) -> EvenModule:
    """Construct the irreducible even module with dominant integral labels.

    Weight supports are explored outward from the highest weight.  Since
    L_mu = sum_i f_i L_{mu+alpha_i} and f_i maps the radical into itself, the
    candidate words at a content are (i,) + w for every basis word w one
    level up; a weight survives iff the Gram matrix of the contravariant form
    on its candidates has positive rank.  Basis classes per weight are the
    pivot columns of the exact row reduction of that Gram matrix (graded lex
    word order), so the whole construction is deterministic.
    """
    spec = datum.spec
    validate_even_labels(spec, a)
    params = module_params(spec)
    a = tuple(int(x) for x in a)
    rank = spec.rank
    verma = _VermaWords(datum.cartan_matrix, a)

    # weight exploration: content -> (words, basis subset, solver)
    spaces: dict = {}
    order: list = []
    frontier = [tuple([0] * rank)]
    while frontier:
        nxt = []
        for content in frontier:
            if content in spaces:
                continue
            if any(content):
                # a parent content with a negative slot is never stored
                words = set()
                for i in range(rank):
                    parent = spaces.get(
                        content[:i] + (content[i] - 1,) + content[i + 1:])
                    if parent is not None:
                        words.update((i,) + w for w in parent["basis"])
                words = sorted(words)
            else:
                words = [()]
            gram = [[verma.pairing(w1, {w2: Fraction(1)}) for w2 in words]
                    for w1 in words]
            rows = [list(r) for r in gram]
            pivots = dense_rref(rows, len(words))
            if not pivots:
                continue
            basis_words = [words[c] for c in pivots]
            columns = [[gram[r][c] for r in range(len(words))] for c in pivots]
            spaces[content] = {
                "words": words,
                "basis": basis_words,
                "solver": ExactSolver(columns) if basis_words else None,
            }
            order.append(content)
            for j in range(rank):
                grown = list(content)
                grown[j] += 1
                nxt.append(tuple(grown))
        frontier = nxt

    order.sort(key=lambda content: (sum(content), content))
    basis_words, contents = [], []
    index_of: dict = {}
    for content in order:
        for word in spaces[content]["basis"]:
            index_of[(content, word)] = len(basis_words)
            basis_words.append(word)
            contents.append(content)
    dim = len(basis_words)

    oracle = weyl_dimension(datum, a)
    if dim != oracle:
        raise InternalConsistencyError(
            f"even module dimension {dim} disagrees with the Weyl formula {oracle}")

    def classify(content: tuple, state: Mapping[tuple, Fraction]) -> dict:
        """Coordinates of a word state in the chosen basis at its weight."""
        space = spaces.get(content)
        if space is None:
            return {}
        target = [verma.pairing(w, state) for w in space["words"]]
        coords = space["solver"].solve(target)
        if coords is None:
            raise InternalConsistencyError("state not in the module span")
        return {index_of[(content, bw)]: c
                for bw, c in zip(space["basis"], coords) if c != 0}

    mats: dict = {lab: {} for lab in
                  [GenLabel("h", i) for i in range(1, rank + 1)]
                  + [GenLabel("e", i) for i in range(1, rank + 1)]
                  + [GenLabel("f", i) for i in range(1, rank + 1)]}
    for col, (word, content) in enumerate(zip(basis_words, contents)):
        for i in range(rank):
            h_val = verma.h_eigen(i, content)
            if h_val:
                mats[GenLabel("h", i + 1)][(col, col)] = Fraction(h_val)
            grown = list(content)
            grown[i] += 1
            for row, coeff in classify(tuple(grown),
                                       {(i,) + word: Fraction(1)}).items():
                mats[GenLabel("f", i + 1)][(row, col)] = coeff
            shrunk = list(content)
            shrunk[i] -= 1
            if shrunk[i] >= 0:
                e_state = verma.apply_e(i, word)
                if e_state:
                    for row, coeff in classify(tuple(shrunk), e_state).items():
                        mats[GenLabel("e", i + 1)][(row, col)] = coeff

    matrices = {lab: PolyMatrix(dim, dim, params, entries)
                for lab, entries in mats.items()}

    shifts = []
    for content in contents:
        shift = [0] * spec.dim_fund
        for j, count in enumerate(content):
            if count:
                root = datum.simple_even_roots[j]
                shift = [ss + count * rr for ss, rr in zip(shift, root)]
        shifts.append(tuple(shift))

    y_scalar = labels_to_hypercharge(sc, a)
    z0_scalar = ParamPoly.var(params, "c") if spec.flavor == "gl" else None

    return EvenModule(
        labels=a, params=params, dim=dim,
        contents=tuple(contents),
        hw=weight_from_labels(datum, a), shifts=tuple(shifts),
        matrices=matrices,
        y_scalar=y_scalar, z0_scalar=z0_scalar)


# -- the second reference: the same Shapovalov recursion on Fraction -------
# -- coordinates, with one Fraction per Gram entry and per e/f coordinate ---

def _step(content: tuple, i: int, delta: int) -> tuple:
    return content[:i] + (content[i] + delta,) + content[i + 1:]


class _WeightSpace(Record, frozen=False):
    """The basis of L at one content, with what the next level reads off it.

    Images are sparse coordinate dicts {basis position: coefficient}.
    """

    basis: list       # basis words, in pivot order
    gram: list        # contravariant form on the basis words
    f: dict           # j -> f_j of each basis word at content - e_j, here
    e: dict           # i -> e_i of each basis word here, at content - e_i


def _weight_space(spaces: dict, content: tuple,
                  h_eigen) -> _WeightSpace | None:
    """The weight space of L at content, from the contents one level up.

    The candidates are the words x = (j,) + w for each basis word w at
    content - e_j.  Their raising images follow from the level above,
    e_i f_j w = f_j (e_i w) + [i = j] h_i(w) w, so the Gram entry
    <(i,) + w', x> = <w', e_i x> is a row of the basis Gram at content - e_i
    against those coordinates.  None if the form vanishes there.
    """
    parents = {i: spaces[shrunk] for i in range(len(content))
               if (shrunk := _step(content, i, -1)) in spaces}
    candidates = sorted(((j,) + w, j, q)
                        for j, space in parents.items()
                        for q, w in enumerate(space.basis))

    def raised(i: int, j: int, q: int) -> dict:
        """e_i f_j (word q at content - e_j), in the basis at content - e_i."""
        out: dict = {}
        e_i = parents[j].e.get(i)
        if e_i is not None:
            f_j = parents[i].f[j]
            for s, coeff in e_i[q].items():
                for r, x in f_j[s].items():
                    out[r] = out.get(r, 0) + coeff * x
        if i == j:
            out[q] = out.get(q, 0) + h_eigen(i, _step(content, i, -1))
        return {r: x for r, x in out.items() if x}

    images = {i: [raised(i, j, q) for _, j, q in candidates] for i in parents}
    gram = [[sum(parents[i].gram[p][r] * x for r, x in image.items())
             for image in images[i]]
            for _, i, p in candidates]
    dense = [[Fraction(x) for x in row] for row in gram]
    pivots = dense_rref(dense, len(candidates))
    reduced = [{c: x for c, x in enumerate(row) if x}
               for row in dense[:len(pivots)]]
    if not pivots:
        return None
    # row reduction keeps the linear relations among the Gram columns, so
    # candidate column col is the sum over k of reduced[k][col] * pivot
    # column k
    f = {j: [None] * len(space.basis) for j, space in parents.items()}
    for col, (_, j, q) in enumerate(candidates):
        f[j][q] = {k: row[col] for k, row in enumerate(reduced) if col in row}
    return _WeightSpace(
        basis=[candidates[c][0] for c in pivots],
        gram=[[gram[r][c] for c in pivots] for r in pivots],
        f=f,
        e={i: [image[c] for c in pivots] for i, image in images.items()})


def reference_shapovalov_irrep(datum: RootDatum, a: Sequence[int],
                               sc: StructureConstants) -> EvenModule:
    """Construct the irreducible even module with dominant integral labels.

    Weight spaces are built level by level outward from the highest weight,
    whose Gram matrix is [[1]].  Since L_mu = sum_i f_i L_{mu+alpha_i} and f_i
    maps the radical into itself, the candidate words at a content are
    (i,) + w for every basis word w one level up; a weight survives iff the
    Gram matrix of the contravariant form on its candidates has positive
    rank.  The basis words at a weight are the pivot columns of the exact
    row reduction of that Gram matrix (graded lex word order), so the whole
    construction is deterministic.  Each level keeps its basis Gram, the f
    coordinates of its candidates and the e coordinates of its basis words,
    which is all the next level reads.
    """
    spec = datum.spec
    validate_even_labels(spec, a)
    params = module_params(spec)
    a = tuple(int(x) for x in a)
    rank = spec.rank
    cartan = datum.cartan_matrix

    def h_eigen(i: int, content: tuple) -> int:
        """Eigenvalue of h_i on any word of the given content."""
        return a[i] - sum(cartan[i][j] * content[j] for j in range(rank))

    # contents in (level, content) order, which is the order of the basis;
    # a wrong form would never vanish, so growth stops past the oracle
    oracle = weyl_dimension(datum, a)
    highest = (0,) * rank
    spaces = {highest: _WeightSpace(basis=[()], gram=[[1]], f={}, e={})}
    level, dim = [highest], 1
    while level and dim <= oracle:
        grown = sorted({_step(content, j, 1)
                        for content in level for j in range(rank)})
        level = []
        for content in grown:
            space = _weight_space(spaces, content, h_eigen)
            if space is not None:
                spaces[content] = space
                level.append(content)
                dim += len(space.basis)

    offset: dict = {}
    basis_words, contents = [], []
    for content, space in spaces.items():
        offset[content] = len(basis_words)
        basis_words += space.basis
        contents += [content] * len(space.basis)

    if dim != oracle:
        raise InternalConsistencyError(
            f"even module dimension {dim} disagrees with the Weyl formula {oracle}")

    mats: dict = {lab: {} for lab in
                  [GenLabel("h", i) for i in range(1, rank + 1)]
                  + [GenLabel("e", i) for i in range(1, rank + 1)]
                  + [GenLabel("f", i) for i in range(1, rank + 1)]}
    for content, space in spaces.items():
        for p in range(len(space.basis)):
            col = offset[content] + p
            for i in range(rank):
                h_val = h_eigen(i, content)
                if h_val:
                    mats[GenLabel("h", i + 1)][(col, col)] = Fraction(h_val)
                grown = _step(content, i, 1)
                if grown in spaces:
                    start = offset[grown]
                    for k, coeff in spaces[grown].f[i][p].items():
                        mats[GenLabel("f", i + 1)][(start + k, col)] = coeff
                if i in space.e:
                    start = offset[_step(content, i, -1)]
                    # rows in basis order, like every other matrix here
                    for r, coeff in sorted(space.e[i][p].items()):
                        mats[GenLabel("e", i + 1)][(start + r, col)] = coeff

    matrices = {lab: PolyMatrix(dim, dim, params, entries)
                for lab, entries in mats.items()}

    shifts = []
    for content in contents:
        shift = [0] * spec.dim_fund
        for j, count in enumerate(content):
            if count:
                root = datum.simple_even_roots[j]
                shift = [ss + count * rr for ss, rr in zip(shift, root)]
        shifts.append(tuple(shift))

    y_scalar = labels_to_hypercharge(sc, a)
    z0_scalar = ParamPoly.var(params, "c") if spec.flavor == "gl" else None

    return EvenModule(
        labels=a, params=params, dim=dim,
        contents=tuple(contents),
        hw=weight_from_labels(datum, a), shifts=tuple(shifts),
        matrices=matrices,
        y_scalar=y_scalar, z0_scalar=z0_scalar)



def stack(flavor, m, n):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    return rep, structure_constants(rep)


SL21, SC21 = stack("sl", 2, 1)
SL31, SC31 = stack("sl", 3, 1)
GL21, SCG21 = stack("gl", 2, 1)
SL41, SC41 = stack("sl", 4, 1)
GL32, SCG32 = stack("gl", 3, 2)

# larger labels: up to 252 letter orderings at one weight
LARGE_CASES = ((SL31.datum, SC31, (2, 2)), (SL31.datum, SC31, (3, 2)),
               (SL41.datum, SC41, (1, 1, 0)), (GL32.datum, SCG32, (1, 1, 1)))

# dim L 256: the Verma-word reference takes ~12 s on it
SL41_A311 = (SL41.datum, SC41, (3, 1, 1))


def _reference_cases():
    cases = list(LARGE_CASES)
    for flavor, m, n, a in (
            ("sl", 2, 1, (3,)), ("sl", 3, 1, (0, 0)), ("sl", 3, 1, (2, 1)),
            ("sl", 4, 1, (1, 0, 0)), ("sl", 4, 1, (2, 1, 1)),
            ("gl", 2, 1, (1,)), ("gl", 2, 3, (0, 0, 0)),
            ("sl", 3, 2, (1, 0, 1)), ("sl", 3, 2, (2, 1, 1)),
            ("sl", 5, 1, (2, 1, 0, 0)), ("sl", 4, 2, (1, 2, 0, 1))):
        rep, sc = stack(flavor, m, n)
        cases.append((rep.datum, sc, a))
    return cases


REFERENCE_CASES = _reference_cases()

# the Verma-word reference takes ~12 s on SL41_A311, so there only the
# Fraction recursion is compared
MATCH_CASES = REFERENCE_CASES + [SL41_A311]


def _h_by_content(L: EvenModule) -> dict:
    """content -> the h_i eigenvalues there, read off the diagonals."""
    out: dict = {}
    for pos, content in enumerate(L.contents):
        out.setdefault(content, set()).add(tuple(
            L.matrices[GenLabel("h", i)].entry(pos, pos).constant_value()
            for i in range(1, len(content) + 1)))
    return out


class TestLabelsToHypercharge:
    def test_sl21_trivial_labels(self):
        # invert h_beta = -(1/2) h_1 - (1/2) y at a = 0: y0 = -2b
        y0 = labels_to_hypercharge(SC21, (0,))
        b = ParamPoly.var(y0.params, "b")
        assert y0 == b * (-2)

    def test_shift_b_by_k_raises_y0_by_one(self):
        y0 = labels_to_hypercharge(SC21, (1,))
        shifted = y0.substitute({"b": Fraction(0) + SC21.k})
        base = y0.substitute({"b": Fraction(0)})
        assert shifted.constant_value() - base.constant_value() == 1

    def test_slope_is_inverse_k(self):
        for sc in (SC21, SC31, SCG21):
            labels = tuple([0] * sc.spec.rank)
            y0 = labels_to_hypercharge(sc, labels)
            assert y0.derivative("b") == ParamPoly.const(
                y0.params, Fraction(1) / sc.k)

    def test_matches_weight_evaluation(self):
        from superkac.algebra import weight_from_labels
        from setup_oracles import weight_eval
        for rep, sc, a in ((SL21, SC21, (2,)), (SL31, SC31, (1, 0)),
                           (GL21, SCG21, (1,))):
            coords = weight_from_labels(rep.datum, a)
            y = rep.matrices[GenLabel("y")]
            diag = [y.entry(i, i).constant_value() for i in range(rep.dim)]
            assert weight_eval(coords, diag) == labels_to_hypercharge(sc, a)


class TestWeylDimension:
    def test_sl2_is_a_plus_one(self):
        assert weyl_dimension(SL21.datum, (5,)) == 6

    def test_sl3_fundamental(self):
        assert weyl_dimension(SL31.datum, (1, 0)) == 3

    def test_trivial(self):
        for rep in (SL21, SL31, GL21):
            assert weyl_dimension(rep.datum, tuple([0] * rep.spec.rank)) == 1

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            weyl_dimension(SL21.datum, (-1,))


class TestBuildEvenIrrep:
    def test_sl2_a2_radical_at_depth3(self):
        L = build_even_irrep((2,), SC21)
        assert L.dim == 3
        e1, f1 = L.matrices[GenLabel("e", 1)], L.matrices[GenLabel("f", 1)]
        # e f^n L = n(a - n + 1) f^(n-1) L for a = 2: coefficients 2, 2, 0
        state = PolyMatrix(L.dim, 1, L.params, {(0, 0): 1})
        expected = {1: Fraction(2), 2: Fraction(2), 3: Fraction(0)}
        for n in (1, 2, 3):
            state = f1 @ state
            image = e1 @ state
            value = sum((v.constant_value() for v in image.entries.values()),
                        Fraction(0))
            assert value == expected[n]
        assert state.is_zero  # f^3 L = 0 in the irreducible quotient

    def test_all_zero_labels_trivial(self):
        L = build_even_irrep((0, 0), SC31)
        assert L.dim == 1
        assert all(mat.is_zero for lab, mat in L.matrices.items()
                   if lab.kind in ("e", "f"))

    def test_sl3_adjoint_dimension(self):
        L = build_even_irrep((1, 1), SC31)
        assert L.dim == 8 == weyl_dimension(SL31.datum, (1, 1))

    def test_dimension_matches_weyl_oracle(self):
        cases = [(SL21.datum, SC21, (a,)) for a in range(4)]
        cases += [(SL31.datum, SC31, a) for a in ((1, 0), (0, 1), (2, 0))]
        cases += LARGE_CASES + (SL41_A311,)
        for datum, sc, a in cases:
            assert build_even_irrep(a, sc).dim == weyl_dimension(datum, a)

    def test_h_matrices_integer_diagonal(self):
        L = build_even_irrep((1, 1), SC31)
        for i in range(1, 3):
            h = L.matrices[GenLabel("h", i)]
            for (r, c), val in h.entries.items():
                assert r == c and val.constant_value().denominator == 1

    def test_even_relations_exact(self):
        # restricted check: even generators only, h' as scalar matrices
        cases = ((SL21.datum, SC21, (2,)), (SL31.datum, SC31, (1, 0)),
                 (GL21.datum, SCG21, (1,))) + LARGE_CASES + (SL41_A311,)
        for _, sc, a in cases:
            L = build_even_irrep(a, sc)
            mats = dict(L.matrices)
            eye = PolyMatrix.identity(L.dim, L.params)
            mats[GenLabel("y")] = eye.scale(L.y_scalar)
            if L.z0_scalar is not None:
                mats[GenLabel("z0")] = eye.scale(L.z0_scalar)
            even_sc_labels = [lab for lab in sc.basis
                              if lab.kind not in ("u", "v")]
            report = check_super_relations(mats, _restrict(sc, even_sc_labels),
                                           "even restriction")
            assert report.ok

    def test_gelfand_tsetlin_pinned_sl31_a21(self):
        # the pattern order and Molev's coefficients, so that a change of
        # basis cannot pass silently; each pattern lists its rows from
        # lambda_1 up to the top row (3, 1, 0) of the labels (2, 1)
        rows = (
            ((3,), (3, 1)), ((3,), (3, 0)), ((2,), (3, 1)), ((2,), (2, 1)),
            ((2,), (3, 0)), ((1,), (3, 1)), ((2,), (2, 0)), ((1,), (2, 1)),
            ((1,), (3, 0)), ((1,), (1, 1)), ((1,), (2, 0)), ((0,), (3, 0)),
            ((1,), (1, 0)), ((0,), (2, 0)), ((0,), (1, 0)))
        patterns = evenrep._patterns((2, 1))
        assert [pattern for _, pattern in patterns] == \
            [row + ((3, 1, 0),) for row in rows]
        L = build_even_irrep((2, 1), SC31)
        assert L.contents == tuple(content for content, _ in patterns)
        # the middle pattern ((2,), (3, 0)): l_11 = 2, (l_21, l_22) =
        # (3, -1), top (3, 0, -2); e_1 gives -(2 - 3)(2 + 1) = 3,
        # e_2 gives -(-1 - 3)(-1)(1) / (-1 - 3) = 1 and f_2 gives
        # (3 - 2) / (3 + 1) = 1/4, its other term leaving the patterns
        middle = rows.index(((2,), (3, 0)))
        expected = {("e", 1): {rows.index(((3,), (3, 0))): 3},
                    ("f", 1): {rows.index(((1,), (3, 0))): 1},
                    ("e", 2): {rows.index(((2,), (3, 1))): 1},
                    ("f", 2): {rows.index(((2,), (2, 0))): Fraction(1, 4)}}
        for (kind, i), column in expected.items():
            mat = L.matrices[GenLabel(kind, i)]
            assert mat.submatrix(range(L.dim), [middle]).entries == {
                (r, 0): ParamPoly.const(L.params, x)
                for r, x in column.items()}

    def test_sl2_coefficients_are_the_shapovalov_ones(self):
        # on f^k v: e = k(a - k + 1) and f = 1, as the Shapovalov basis has
        a = 3
        L = build_even_irrep((a,), SC21)
        e, f = L.matrices[GenLabel("e", 1)], L.matrices[GenLabel("f", 1)]
        assert e.entries == {
            (k - 1, k): ParamPoly.const(L.params, k * (a - k + 1))
            for k in range(1, a + 1)}
        assert f.entries == {(k, k - 1): ParamPoly.const(L.params, 1)
                             for k in range(1, a + 1)}
        want = reference_shapovalov_irrep(SL21.datum, (a,), SC21)
        assert L.matrices == want.matrices

    def test_weyl_group_multiplicity_symmetry(self):
        # multiplicities are symmetric along every alpha_i string
        for datum, sc, a in ((SL31.datum, SC31, (2, 1)),
                             (SL21.datum, SC21, (3,))):
            L = build_even_irrep(a, sc)
            mult: dict = {}
            for content in L.contents:
                mult[content] = mult.get(content, 0) + 1
            C = datum.cartan_matrix
            for content in mult:
                for i in range(datum.rank):
                    h_val = a[i] - sum(C[i][j] * content[j]
                                       for j in range(datum.rank))
                    reflected = list(content)
                    reflected[i] += h_val
                    assert mult.get(tuple(reflected)) == mult[content]

    @pytest.mark.parametrize(
        "datum, sc, a", MATCH_CASES,
        ids=[f"{sc.spec.flavor}{sc.spec.m}{sc.spec.n}-"
             + ",".join(map(str, a)) for _, sc, a in MATCH_CASES])
    def test_matches_references(self, datum, sc, a):
        # the bases differ, the modules do not: same scalars and highest
        # weight, the same multiplicity and h eigenvalues at every content,
        # and each shift the content times the simple even roots
        got = build_even_irrep(a, sc)
        references = [reference_shapovalov_irrep]
        if (datum, sc, a) != SL41_A311:
            references.append(reference_build_even_irrep)
        for reference in references:
            want = reference(datum, a, sc)
            for field in ("dim", "labels", "params", "hw", "y_scalar",
                          "z0_scalar"):
                assert getattr(got, field) == getattr(want, field), field
            assert Counter(got.contents) == Counter(want.contents)
            assert got.contents[0] == want.contents[0] == (0,) * len(a)
            assert _h_by_content(got) == _h_by_content(want)
        for content, shift in zip(got.contents, got.shifts):
            expected = [0] * sc.spec.dim_fund
            for count, root in zip(content, datum.simple_even_roots):
                expected = [x + count * r for x, r in zip(expected, root)]
            assert shift == tuple(expected)

    @pytest.mark.parametrize(
        "datum, sc, a", MATCH_CASES,
        ids=[f"{sc.spec.flavor}{sc.spec.m}{sc.spec.n}-"
             + ",".join(map(str, a)) for _, sc, a in MATCH_CASES])
    def test_highest_weight_vectors_form_a_line(self, datum, sc, a):
        # the common kernel of the e_i is span{v_Lambda}, position 0; a
        # finite-dimensional module whose highest weight vectors form a
        # line is irreducible
        L = build_even_irrep(a, sc)
        rows = [row for i in range(1, sc.spec.rank + 1)
                for row in L.matrices[GenLabel("e", i)]
                .integer_term()[1].values()]
        pivots, reduced = integer_rref(rows)
        assert nullspace(pivots, reduced, L.dim) == \
            ((Fraction(1),) + (Fraction(0),) * (L.dim - 1),)

    def test_builds_without_elimination(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the even irrep ran an elimination")

        # in exact, and in evenrep should it import them by name
        for name in ("integer_rref", "echelon_insert", "_eliminate"):
            monkeypatch.setattr(exact, name, refuse)
            monkeypatch.setattr(evenrep, name, refuse, raising=False)
        for datum, sc, a in LARGE_CASES:
            assert build_even_irrep(a, sc).dim == weyl_dimension(datum, a)

    def test_shapovalov_form_symmetric(self):
        words = _VermaWords(SL31.datum.cartan_matrix, (2, 1))
        content_words = [(0,), (1,), (0, 1), (1, 0), (0, 0, 1), (1, 0, 0)]
        for w1, w2 in itertools.product(content_words, repeat=2):
            if words.content_of(w1) != words.content_of(w2):
                continue
            one = {w2: Fraction(1)}
            other = {w1: Fraction(1)}
            assert words.pairing(w1, one) == words.pairing(w2, other)

    def test_non_dominant_rejected(self):
        with pytest.raises(InputError):
            build_even_irrep((-1,), SC21)


def _restrict(sc, labels):
    """Sub-table view with only the given labels (for even-only checks)."""
    keep = set(labels)
    table = {(a, b): expansion for (a, b), expansion in sc.table.items()
             if a in keep and b in keep}
    recipes = {lab: recipe for lab, recipe in sc.recipes.items() if lab in keep}
    return StructureConstants(
        spec=sc.spec, datum=sc.datum, basis=tuple(l for l in sc.basis if l in keep),
        recipes=recipes, table=table, k=sc.k)
