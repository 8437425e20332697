"""Finite-dimensional irreducible modules of the even subalgebra
sl(m) + sl(n) + h', built from Verma weight spaces and the contravariant
(Shapovalov) form.

States of the Verma module are held as linear combinations of words in the
simple lowering generators applied to the highest weight vector; raising
generators act by commuting through, which needs nothing beyond the Cartan
matrix.  Each weight space of the irreducible quotient is spanned by f_i
applied to the basis words one level up, and is cut out modulo the radical
of the form by exact rational rank computations.  The hypercharge and (for
gl) the central charge act on everything by scalars, kept symbolic in b
and c.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from superkac.algebra import (GenLabel, InternalConsistencyError,
                              RootDatum, StructureConstants, module_params,
                              validate_even_labels, weight_from_labels)
from superkac.exact import ExactSolver, ParamPoly, PolyMatrix, _rref


@dataclass(frozen=True)
class EvenModule:
    """An irreducible module of the even subalgebra with scalar h' action."""

    datum: RootDatum
    labels: tuple                     # even Dynkin labels a_1..a_r
    params: tuple                     # ("b",) or ("b", "c")
    dim: int
    basis_words: tuple                # word in simple lowering ops per vector
    contents: tuple                   # root-coordinate content per vector
    weights: tuple                    # epsilon/delta coordinates (ParamPoly)
    matrices: dict                    # GenLabel h/e/f -> PolyMatrix
    y_scalar: ParamPoly               # hypercharge eigenvalue y0(b)
    z0_scalar: ParamPoly | None       # central charge c, gl only


def labels_to_hypercharge(sc: StructureConstants, a: Sequence[int],
                          params: Sequence[str] | None = None) -> ParamPoly:
    """Hypercharge eigenvalue y0 on the highest weight, linear in b.

    Inverts {u_1, v_1} = d^a_11 h_a + k y on the highest weight state, where
    the h eigenvalues are the even Dynkin labels.
    """
    spec = sc.spec
    validate_even_labels(spec, a)
    params = tuple(params) if params is not None else module_params(spec)
    b = ParamPoly.var(params, "b")
    acc = b
    for label, coeff in sc.d[(1, 1)].items():
        if label.kind == "h":
            acc = acc - coeff * a[label.index - 1]
        elif label.kind == "z0" and coeff != 0:
            raise InternalConsistencyError("{u_1,v_1} acquired a z0 part")
    return acc * (Fraction(1) / sc.k)


def weyl_dimension(datum: RootDatum, a: Sequence[int]) -> int:
    """Product-formula dimension of the even irrep, per simple factor.

    For an sl(k) factor with labels (a_1..a_{k-1}) this is
    prod_{i<j} (l_i - l_j) / (j - i) with l_i = sum_{p>=i} a_p + (k - i).
    Independent of the Shapovalov construction; used as its oracle.
    """
    spec = datum.spec
    validate_even_labels(spec, a)
    total = Fraction(1)
    blocks = [(0, spec.m), (spec.m - 1, spec.n)]
    for offset, size in blocks:
        if size < 2:
            continue
        labels = a[offset:offset + size - 1]
        ell = [sum(labels[i:]) + (size - 1 - i) for i in range(size)]
        for i, j in itertools.combinations(range(size), 2):
            total *= Fraction(ell[i] - ell[j], j - i)
    if total.denominator != 1 or total <= 0:
        raise InternalConsistencyError(f"Weyl dimension came out as {total}")
    return int(total)


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


def build_even_irrep(datum: RootDatum, a: Sequence[int],
                     sc: StructureConstants,
                     params: Sequence[str] | None = None) -> EvenModule:
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
    params = tuple(params) if params is not None else module_params(spec)
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
            pivots = _rref(rows, len(words))
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

    hw_coords = weight_from_labels(datum, a, params)
    weights = []
    for content in contents:
        coord = list(hw_coords)
        for j, count in enumerate(content):
            if count:
                root = datum.simple_even_roots[j]
                coord = [cc - count * rr for cc, rr in zip(coord, root)]
        weights.append(tuple(coord))

    y_scalar = labels_to_hypercharge(sc, a, params)
    z0_scalar = ParamPoly.var(params, "c") if spec.flavor == "gl" else None

    return EvenModule(
        datum=datum, labels=a, params=params, dim=dim,
        basis_words=tuple(basis_words), contents=tuple(contents),
        weights=tuple(weights), matrices=matrices,
        y_scalar=y_scalar, z0_scalar=z0_scalar)
