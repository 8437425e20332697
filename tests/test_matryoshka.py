"""Nested replications: derivatives, block forms, Jordan profiles, twists."""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkac import algebra, cli, kacmod, matryoshka
from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              SuperAlgebraSpec, build_fundamental_rep,
                              check_super_relations, extend_matrices,
                              structure_constants, superbracket_violations)
from superkac.cli import JobConfig
from superkac.evenrep import build_even_irrep
from superkac.exact import ParamPoly, ParameterizedEntryError, PolyMatrix
from superkac.jsonio import export_json, module_to_json
from superkac.kacmod import induce, weight_spaces
from superkac.matryoshka import (ReplicatedModule, ReplicationSpec,
                                 TwistSpec, deformation, derivative_report,
                                 derivative_violations, jordan_profile,
                                 odd_derivative, replicate, twist)
from block_oracle import (block_matrices, cartan_matrix_of,
                          jordan_minpoly_profile, superdiagonal)
from rescaling import conjugation_check, rescale_conjugation_check
from testmatrix import COUPLING_SETS


def build_kac(flavor, m, n, a):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    sc = structure_constants(rep)
    L = build_even_irrep(a, sc)
    return induce(L, sc), sc


QUARTET, SC21 = build_kac("sl", 2, 1, (0,))
OCTET, _ = build_kac("sl", 2, 1, (1,))
GL_TRIV, SCG21 = build_kac("gl", 2, 1, (0,))
GL_A1, _ = build_kac("gl", 2, 1, (1,))
HYPERCHARGE = {GenLabel("y"): Fraction(1)}


def u_prime(D) -> dict:
    """Odd index -> the u-part of a deformation's B."""
    return {lab.index: mat for lab, mat in D.B.items() if lab.kind == "u"}


class TestOddDerivative:
    def test_linear_reconstruction(self):
        # u(b) = u(b0) + (y0(b) - y0(b0)) u' for any rational b0
        D = odd_derivative(QUARTET)
        for b0 in (Fraction(0), Fraction(2, 3), Fraction(-7)):
            for i, up in u_prime(D).items():
                u = QUARTET.matrices[GenLabel("u", i)]
                y0 = QUARTET.L.y_scalar
                dy = y0 - y0.substitute({"b": b0})
                reconstructed = u.substitute({"b": b0}) + up.scale(dy)
                assert reconstructed == u

    def test_derivative_is_b_free(self):
        for K, sc in ((QUARTET, SC21), (OCTET, SC21), (GL_A1, SCG21)):
            D = odd_derivative(K)
            for up in u_prime(D).values():
                assert up.degree("b") == 0

    def test_finite_difference_oracle(self):
        # (u(b1) - u(b0)) * k / (b1 - b0) equals the stored derivative
        D = odd_derivative(OCTET)
        b0, b1 = Fraction(1, 3), Fraction(4)
        for i, up in u_prime(D).items():
            u = OCTET.matrices[GenLabel("u", i)]
            diff = (u.substitute({"b": b1}) - u.substitute({"b": b0})).scale(
                SC21.k / (b1 - b0))
            assert diff == up

    def test_contraction_example_on_quartet(self):
        # differentiate u_1 (v_1 x L) = b L: since db/dy0 = k, the derived
        # generator sends v_1 x L to k (empty x L)
        D = odd_derivative(QUARTET)
        col = D.B[GenLabel("u", 1)].submatrix(range(QUARTET.dim),
                                     [QUARTET.basis.index(((1,), 0))])
        assert col.entries == {
            (0, 0): ParamPoly.const(QUARTET.params, SC21.k)}


class TestDeformation:
    def test_b_is_the_derivative_of_a_replaced_a(self):
        """B is computed from A: after D.replace(A=...), each B is the
        entrywise derivative of the new A along D = 2k d/db - 3 d/dc."""
        K, u1 = GL_A1, GenLabel("u", 1)
        D = deformation(K, 2, -3)
        b, c = ParamPoly.var(K.params, "b"), ParamPoly.var(K.params, "c")
        new = D.replace(A={**D.A, u1: D.A[u1].scale(b * b + c)})
        assert new.B[u1] != D.B[u1]
        for label, mat in new.A.items():
            assert new.B[label] == PolyMatrix(K.dim, K.dim, K.params, {
                pos: v.derivative("b") * (2 * K.sc.k) - v.derivative("c") * 3
                for pos, v in mat.entries.items()})


class TestHeisenbergIdentity:
    def test_all_small_modules_pass(self):
        for a in ((0,), (1,), (2,)):
            K, _ = build_kac("sl", 2, 1, a)
            # {u'_i, v_j} = k delta_ij I, {u'_i, u_j} + {u_i, u'_j} = 0 and
            # {u'_i, u'_j} = 0 are among identities (ii) and (iii)
            assert derivative_report(odd_derivative(K), 3, "N=3").ok

    def test_identity_is_b_free(self):
        # substituting typical and atypical values changes nothing
        K, sc = QUARTET, SC21
        D = odd_derivative(K)
        eye = PolyMatrix.identity(K.dim, K.params)
        for bval in (Fraction(5, 7), Fraction(0), Fraction(-1)):
            for i in (1, 2):
                up = D.B[GenLabel("u", i)]
                v = K.matrices[GenLabel("v", i)].substitute({"b": bval})
                assert up @ v + v @ up == eye.scale(sc.k)


class TestReplicate:
    def test_n1_unchanged(self):
        R = replicate(QUARTET, ReplicationSpec(1, ()))
        assert block_matrices(R) == QUARTET.matrices

    def test_doubling_block_form(self):
        # the 2D x 2D matrices: M = diag(mu, mu), Y = [[y, I], [0, y]],
        # U = [[u, u'], [0, u]], V = diag(v, v)
        K, sc = QUARTET, SC21
        D = odd_derivative(K)
        R = replicate(K, ReplicationSpec(2, (Fraction(1),)))
        dim = K.dim
        eye = PolyMatrix.identity(dim, K.params)

        def block(mat, i, j):
            entries = {(r - i * dim, c - j * dim): val
                       for (r, c), val in mat.entries.items()
                       if i * dim <= r < (i + 1) * dim
                       and j * dim <= c < (j + 1) * dim}
            return PolyMatrix(dim, dim, K.params, entries)

        blocks = block_matrices(R)
        for lab, base in K.matrices.items():
            mat = blocks[lab]
            assert block(mat, 0, 0) == base and block(mat, 1, 1) == base
            assert block(mat, 1, 0).is_zero
            upper = block(mat, 0, 1)
            if lab.kind == "y":
                assert upper == eye
            elif lab.kind == "u":
                assert upper == D.B[lab]
            else:
                assert upper.is_zero

    def test_triple_with_level_couplings(self):
        K, sc = QUARTET, SC21
        lams = (Fraction(2), Fraction(-3, 5))
        R = replicate(K, ReplicationSpec(3, lams))
        dim = K.dim
        blocks = block_matrices(R)
        Y = blocks[GenLabel("y")]
        for level, lam in enumerate(lams):
            for i in range(dim):
                assert Y.entry(level * dim + i, (level + 1) * dim + i) == lam
        assert check_super_relations(blocks, sc, "N=3").ok

    def test_relations_on_all_coupling_sets(self):
        for K, sc in ((QUARTET, SC21), (GL_A1, SCG21)):
            for lams in COUPLING_SETS:
                R = replicate(K, ReplicationSpec(len(lams) + 1, lams))
                assert check_super_relations(block_matrices(R), sc).ok

    def test_diagonal_blocks_equal_base(self):
        R = replicate(OCTET, ReplicationSpec(3, (Fraction(1), Fraction(4))))
        blocks = block_matrices(R)
        for lab in OCTET.matrices:
            for t in range(3):
                copy = range(t * OCTET.dim, (t + 1) * OCTET.dim)
                assert blocks[lab].submatrix(copy, copy) == \
                    OCTET.matrices[lab]

    def test_nesting(self):
        # dropping the last copy of an N-fold module gives the (N-1)-fold one
        lams = (Fraction(2), Fraction(-3, 5))
        R3 = replicate(QUARTET, ReplicationSpec(3, lams))
        R2 = replicate(QUARTET, ReplicationSpec(2, lams[:1]))
        lead = range(2 * QUARTET.dim)
        blocks = block_matrices(R2)
        assert all(mat.submatrix(lead, lead) == blocks[lab]
                   for lab, mat in block_matrices(R3).items())

    def test_layers_built_once_with_the_same_artifact(self, monkeypatch,
                                                      tmp_path):
        """``layers`` is built on first read and kept, so the export's
        read per basis position copies nothing; the artifact is that of
        the property it replaced, which rebuilt the tuple on every read."""
        def exported(module) -> bytes:
            path = tmp_path / "module.json"
            export_json(module_to_json(module), str(path))
            return path.read_bytes()

        spec = ReplicationSpec(3, (Fraction(1), Fraction(4)))
        R = replicate(OCTET, spec)
        cached = exported(R)
        assert R.__dict__["layers"] is R.layers
        assert R.layers == tuple(OCTET.layers) * 3
        assert [vector["layer"] for vector in json.loads(cached)["basis"]] \
            == list(R.layers)
        monkeypatch.setattr(ReplicatedModule, "layers", property(
            lambda self: tuple(self.base.layers) * self.N))
        fresh = replicate(OCTET, spec)
        assert fresh.layers is not fresh.layers
        assert exported(fresh) == cached

    def test_zero_coupling_rejected(self):
        with pytest.raises(InputError):
            ReplicationSpec(2, (Fraction(0),))
        with pytest.raises(InputError):
            ReplicationSpec(3, (Fraction(1), Fraction(0)))

    def test_wrong_coupling_count_rejected(self):
        with pytest.raises(InputError):
            ReplicationSpec(3, (Fraction(1),))

    def test_float_coupling_rejected(self):
        # Fraction(0.1) would be 3602879701896397/36028797018963968
        with pytest.raises(InputError, match="lambdas"):
            ReplicationSpec(2, (0.1,))
        with pytest.raises(InputError, match="lambdas"):
            ReplicationSpec(3, (1, "1/0"))
        assert ReplicationSpec(3, (2, "-1/10")).lambdas == \
            (Fraction(2), Fraction(-1, 10))


class TestRescaleConjugation:
    def test_identity_and_generic_scalars(self):
        for lam in (Fraction(1), Fraction(2), Fraction(-3, 5)):
            assert rescale_conjugation_check(QUARTET, (lam,)).ok

    @pytest.mark.parametrize("lambdas", [
        (Fraction(-2, 3),), (Fraction(2), Fraction(-3, 5)),
        (Fraction(3), Fraction(1, 2), Fraction(-4))], ids=["N2", "N3", "N4"])
    def test_couplings_are_a_choice_of_basis(self, lambdas):
        # diag(q) (x) I with q_t = q_(t+1) / lambda_t carries the
        # replication with couplings lambda to the one with unit couplings
        K = LADDER_BASES["sl21_a2"]
        assert rescale_conjugation_check(K, lambdas).ok
        N = len(lambdas) + 1
        unit = replicate(K, ReplicationSpec(N, (1,) * (N - 1)))
        found = conjugation_check(
            replicate(K, ReplicationSpec(N, lambdas)), unit, (1,) * N)
        assert not found.ok

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            rescale_conjugation_check(QUARTET, (Fraction(0),))

    def test_wrong_scale_refused(self):
        # diag(3, 1) does not carry the twist by nu to the one by 2 nu
        source = twist(GL_TRIV, TwistSpec(2, (1, 0)))
        target = twist(GL_TRIV, TwistSpec(2, (2, 0)))
        assert conjugation_check(source, target, (2, 1)).ok
        found = conjugation_check(source, target, (3, 1))
        assert not found.ok
        assert found.items[0].name == "conjugation on y"


def reference_jordan_profile(module, bindings, h_coeffs) -> dict:
    """The profile from dense Fraction blocks read cell by cell."""
    mat = cartan_matrix_of(module, h_coeffs).substitute(bindings)

    profile = {}
    for key, cols in weight_spaces(module, bindings).items():
        block = [[mat.entry(r, c).constant_value() for c in cols] for r in cols]
        size = len(cols)
        eigen = block[0][0]
        nil = [[block[r][c] - (eigen if r == c else Fraction(0))
                for c in range(size)] for r in range(size)]
        degree = 1
        power = nil
        while any(any(x != 0 for x in row) for row in power):
            degree += 1
            if degree > size:
                raise InternalConsistencyError(
                    "Cartan element is not nilpotent minus scalar on a "
                    "generalized weight space")
            power = [[sum(power[r][k] * nil[k][c] for k in range(size))
                      for c in range(size)] for r in range(size)]
        profile[key] = degree
    return profile


SL31_A21, _ = build_kac("sl", 3, 1, (2, 1))
B57 = {"b": Fraction(5, 7)}
GL_BINDINGS = {"b": Fraction(5, 7), "c": Fraction(3, 11)}


class TestJordanProfile:
    @pytest.mark.parametrize("module,bindings,h_coeffs,degrees", [
        (replicate(SL31_A21, ReplicationSpec(3, (Fraction(2), Fraction(-1, 3)))),
         B57, HYPERCHARGE, {3}),
        (ReplicatedModule(odd_derivative(OCTET), superdiagonal((1, 0)),
                          None), B57, HYPERCHARGE, {2}),
        (replicate(OCTET, ReplicationSpec(3, (Fraction(1), Fraction(4)))),
         B57, {GenLabel("h", 1): Fraction(1), GenLabel("y"): Fraction(1)},
         {3}),
        (twist(GL_A1, TwistSpec(3, (1, 2))), GL_BINDINGS,
         {GenLabel("z0"): Fraction(1)}, {3}),
        # nu(h) = 0: the twist does not show in this direction
        (twist(GL_A1, TwistSpec(3, (1, 2))), GL_BINDINGS,
         {GenLabel("y"): Fraction(-2), GenLabel("z0"): Fraction(1)}, {1}),
    ], ids=["sl31-a21-N3", "couplings-1-0", "h1-plus-y", "twist-z0",
            "twist-kernel"])
    def test_matches_block_matrix_oracle(self, module, bindings, h_coeffs,
                                         degrees):
        profile = same_profile(module, bindings, h_coeffs)
        assert set(profile.values()) == degrees

    @pytest.mark.parametrize("h_coeffs", [
        HYPERCHARGE, {GenLabel("h", 1): Fraction(1), GenLabel("y"): Fraction(1)}])
    def test_fresh_block_module_builds_only_the_cartan_labels(
            self, monkeypatch, h_coeffs):
        """On a fresh module the profile assembles and derives the labels
        of h_coeffs alone, and builds no block matrix."""
        assembled, blocks, derived = [], [], []
        assemble, along = kacmod.kronecker_sum, matryoshka.Deformation.along
        monkeypatch.setattr(kacmod, "kronecker_sum",
                            lambda *args: assembled.append(args[3])
                            or assemble(*args))
        monkeypatch.setattr(matryoshka, "kronecker_sum",
                            lambda *args: blocks.append(args))
        monkeypatch.setattr(matryoshka.Deformation, "along",
                            lambda D, mat: derived.append(mat)
                            or along(D, mat))
        K, _ = build_kac("sl", 3, 1, (2, 1))
        parts = dict(K.matrices.stored)
        spec = ReplicationSpec(3, (Fraction(2), Fraction(-1, 3)))
        profile = jordan_profile(replicate(K, spec), B57, h_coeffs)
        assert assembled == [parts[label] for label in h_coeffs]
        assert derived == [K.matrices[label] for label in h_coeffs]
        assert blocks == []
        monkeypatch.undo()
        assert profile == jordan_minpoly_profile(replicate(K, spec), B57,
                                                 h_coeffs)

    def test_not_scalar_plus_nilpotent_rejected(self):
        # one weight space on which y has two distinct eigenvalues
        module = SimpleNamespace(
            hw=(ParamPoly.const((), 0),), shifts=((0,), (0,)),
            matrices={GenLabel("y"): PolyMatrix(
                2, 2, (), {(0, 0): 1, (0, 1): 1, (1, 1): 2})})
        for profile in (jordan_minpoly_profile, reference_jordan_profile):
            with pytest.raises(InternalConsistencyError):
                profile(module, {}, HYPERCHARGE)

    def test_unbound_parameter_rejected(self):
        # a gl module with only b bound still has c in its weights
        module = twist(GL_A1, TwistSpec(2, (1, 2)))
        with pytest.raises(ParameterizedEntryError):
            jordan_profile(module, B57, HYPERCHARGE)

    def test_base_module_is_diagonal(self):
        # K itself, as its one-copy replication
        R = replicate(QUARTET, ReplicationSpec(1, ()))
        assert set(same_profile(R, B57, HYPERCHARGE).values()) == {1}

    def test_replication_degree_equals_copies(self):
        for lams in COUPLING_SETS:
            R = replicate(QUARTET, ReplicationSpec(len(lams) + 1, lams))
            profile = same_profile(R, B57, HYPERCHARGE)
            assert set(profile.values()) == {len(lams) + 1}

    def test_split_bypass_degree_one(self):
        # a zero coupling, which ReplicationSpec rejects, given to the block
        # module directly gives a direct sum, detected by the profile
        # collapsing to 1
        R0 = ReplicatedModule(odd_derivative(QUARTET), superdiagonal((0,)),
                              None)
        assert set(same_profile(R0, B57, HYPERCHARGE).values()) == {1}


# the bases of the benchmark's indecomposable ladder
LADDER_BASES = {"sl21_a2": build_kac("sl", 2, 1, (2,))[0], "gl21_a1": GL_A1,
                "sl31_a11": build_kac("sl", 3, 1, (1, 1))[0],
                "sl31_a21": SL31_A21}
nonzero_rationals = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))


def same_profile(module, bindings, h_coeffs) -> dict:
    """The profile read off the coupling matrix, asserted equal to the one
    computed on the block matrix: the same degrees on as many weight
    spaces, weight by weight."""
    read = jordan_profile(module, bindings, h_coeffs)
    direct = jordan_minpoly_profile(module, bindings, h_coeffs)
    assert set(read.values()) == set(direct.values())
    assert len(read) == len(direct)
    assert read == direct
    return read


def bumped_y(K):
    """K's hypercharge matrix with 1 added on the diagonal at the first
    position whose weight an earlier position has, so that it takes two
    values on that weight space."""
    seen = set()
    pos = next(pos for pos, shift in enumerate(K.shifts)
               if shift in seen or seen.add(shift))
    return K.matrices[GenLabel("y")] + PolyMatrix(K.dim, K.dim, K.params,
                                                  {(pos, pos): 1})


def replicate_job(path) -> str:
    """The report an sl(3|1) a=(2,1) replicate job, N = 3, writes to
    path."""
    cfg = JobConfig(action="replicate", m=3, n=1, labels=(2, 1), N=3,
                    lambdas=("2", "-1/3"), report=str(path))
    assert cli.run(cfg) == 0
    return path.read_text()


class TestCouplingProfile:
    @pytest.mark.parametrize("name", LADDER_BASES)
    @settings(max_examples=12, deadline=None)
    @given(couplings=st.lists(nonzero_rationals, max_size=3),
           b=st.sampled_from([Fraction(5, 7), Fraction(0), Fraction(-2)]))
    def test_replication_degree_is_read_off_the_couplings(self, name,
                                                          couplings, b):
        K = LADDER_BASES[name]
        bindings = {"b": b, "c": Fraction(3, 11)} if "c" in K.params \
            else {"b": b}
        N = len(couplings) + 1
        R = replicate(K, ReplicationSpec(N, tuple(couplings)))
        assert set(same_profile(R, bindings, HYPERCHARGE).values()) == {N}

    @pytest.mark.parametrize("nu", [(0, 1), (2, -3)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gl_twist_degrees_of_y_and_z0(self, nu, n):
        T = twist(GL_A1, TwistSpec(n, nu))
        for label, x in zip((GenLabel("y"), GenLabel("z0")), nu):
            degrees = set(same_profile(T, GL_BINDINGS, {label: 1}).values())
            assert degrees == {n if x else 1}

    @pytest.mark.parametrize("module,bindings,h_coeffs", [
        (ReplicatedModule(odd_derivative(OCTET), superdiagonal((1, 0)),
                          None), B57, HYPERCHARGE),
        (replicate(OCTET, ReplicationSpec(3, (Fraction(1), Fraction(4)))),
         B57, {GenLabel("h", 1): Fraction(1), GenLabel("y"): Fraction(1)}),
        (twist(GL_A1, TwistSpec(3, (1, 2))), GL_BINDINGS,
         {GenLabel("y"): Fraction(-2), GenLabel("z0"): Fraction(1)}),
    ], ids=["couplings-1-0", "h1-plus-y", "twist-kernel"])
    def test_cartan_combinations(self, module, bindings, h_coeffs):
        same_profile(module, bindings, h_coeffs)

    def test_scaled_b_y_is_read_as_its_scalar(self, monkeypatch, tmp_path):
        """With B_y = 2 I, not nu_y I, the profile reads mu = 2 off B_y,
        builds no block matrix, and the verb writes the report it writes
        unpatched."""
        expected = replicate_job(tmp_path / "expected.json")
        y, along = GenLabel("y"), matryoshka.Deformation.along
        monkeypatch.setattr(matryoshka.Deformation, "along", lambda D, mat:
                            along(D, mat).scale(2 if mat is D.A[y] else 1))
        R = replicate(SL31_A21, ReplicationSpec(3, (Fraction(2),
                                                    Fraction(-1, 3))))
        assert R.deformation.B[y] == PolyMatrix.identity(
            SL31_A21.dim, SL31_A21.params).scale(2)
        oracle = jordan_minpoly_profile(R, B57, HYPERCHARGE)

        def refuse(*args):
            raise AssertionError("a block matrix was built")

        monkeypatch.setattr(matryoshka, "kronecker_sum", refuse)
        assert jordan_profile(R, B57, HYPERCHARGE) == oracle
        assert set(oracle.values()) == {3}
        assert replicate_job(tmp_path / "report.json") == expected
        assert "hypercharge Jordan degree 3 on every weight space" in expected

    def test_unequal_a_y_in_a_weight_space_fails_its_premise(
            self, monkeypatch):
        """A_y with two values on one weight space: the profile and the
        verb raise the error that names the failed premise."""
        original = matryoshka.replicate

        def bumped(K, spec):
            R = original(K, spec)
            return R.replace(deformation=R.deformation.replace(
                A={**R.deformation.A, GenLabel("y"): bumped_y(K)}))

        premise = "premise failed: A_h is not diagonal with one value per " \
            "weight space"
        with pytest.raises(InternalConsistencyError, match=premise):
            jordan_profile(bumped(OCTET, ReplicationSpec(2, (Fraction(1),))),
                           B57, HYPERCHARGE)
        monkeypatch.setattr(matryoshka, "replicate", bumped)
        with pytest.raises(InternalConsistencyError, match=premise):
            cli.run(JobConfig(action="replicate", labels=(1,), N=2))

    def test_non_scalar_b_y_and_non_nilpotent_c_are_named(self,
                                                          monkeypatch):
        R = replicate(OCTET, ReplicationSpec(2, (Fraction(1),)))
        with pytest.raises(InternalConsistencyError,
                           match="not nilpotent"):
            R.replace(coupling=PolyMatrix(2, 2, (), {(0, 1): 1, (1, 0): 1})
                      ).index
        y, along = GenLabel("y"), matryoshka.Deformation.along
        bump = PolyMatrix(OCTET.dim, OCTET.dim, OCTET.params, {(0, 0): 1})
        monkeypatch.setattr(matryoshka.Deformation, "along", lambda D, mat:
                            along(D, mat) + bump if mat is D.A[y]
                            else along(D, mat))
        with pytest.raises(InternalConsistencyError,
                           match="premise failed: B_h is not a scalar"):
            jordan_profile(replicate(OCTET, ReplicationSpec(
                2, (Fraction(1),))), B57, HYPERCHARGE)

    def test_unbound_parameter_rejected_as_by_the_block_matrix(self):
        module = twist(GL_A1, TwistSpec(2, (1, 2)))
        for profile in (jordan_profile, jordan_minpoly_profile):
            with pytest.raises(ParameterizedEntryError, match="not constant"):
                profile(module, B57, HYPERCHARGE)


class TestTwist:
    def test_pure_y_direction_equals_replication(self):
        T = twist(GL_TRIV, TwistSpec(3, (1, 0)))
        R = replicate(GL_TRIV, ReplicationSpec(3, (1, 1)))
        assert block_matrices(T) == block_matrices(R)

    def test_z0_direction_superdiagonal(self):
        T = twist(GL_TRIV, TwistSpec(2, (0, 1)))
        dim = GL_TRIV.dim
        blocks = block_matrices(T)
        Z = blocks[GenLabel("z0")]
        for i in range(dim):
            assert Z.entry(i, dim + i) == 1
        for lab, mat in blocks.items():
            if lab.kind in ("e", "f", "h", "v", "u"):
                for (r, c) in mat.entries:
                    assert not (r < dim <= c)

    def test_relations_pass_on_every_twist(self):
        for nu in ((1, 0), (0, 1), (2, -3)):
            T = twist(GL_A1, TwistSpec(2, nu))
            assert check_super_relations(block_matrices(T), SCG21).ok
        T = twist(QUARTET, TwistSpec(3, (1,)))
        assert check_super_relations(block_matrices(T), SC21).ok

    def test_zero_direction_rejected(self):
        with pytest.raises(InputError):
            TwistSpec(2, (0, 0))

    def test_float_direction_rejected(self):
        with pytest.raises(InputError, match="nu"):
            TwistSpec(2, (1, 0.1))
        assert TwistSpec(2, ("1/10",)).nu == (Fraction(1, 10),)

    def test_deformation_refuses_a_float_direction(self):
        with pytest.raises(TypeError):
            deformation(QUARTET, 0.1)
        with pytest.raises(TypeError):
            deformation(GL_A1, 1, 0.5)
        assert deformation(GL_A1, "1/2", 3).nu == (Fraction(1, 2), 3)

    def test_z0_component_needs_gl(self):
        with pytest.raises(InputError):
            twist(QUARTET, TwistSpec(2, (1, 1)))

    def test_sl_twist_refuses_a_zero_z0_component(self):
        # TwistSpec cannot tell sl from gl, and deformation sees only the
        # zero z0 coefficient, so twist refuses the second component
        with pytest.raises(InputError, match="^nu .* sl"):
            twist(QUARTET, TwistSpec(2, (1, 0)))
        assert twist(QUARTET, TwistSpec(2, (1,))).nu == (Fraction(1),)


def top_weight_mu(module) -> dict:
    """Cartan label -> mu(h), its first superdiagonal entry on the top
    weight space v_Lambda (x) C^N, the highest weight vector of each copy.

    There h acts by lambda(h) on the diagonal and by mu(h) scaled as the
    couplings on the first superdiagonal, and by zero elsewhere; that shape
    is asserted."""
    top = range(0, module.dim, module.base.dim)
    mu = {}
    blocks = block_matrices(module)
    for label in module.base.matrices:
        if label.kind not in ("h", "y", "z0"):
            continue
        block = blocks[label].submatrix(top, top)
        for i in range(module.N):
            for j in range(module.N):
                if i == j:
                    assert block.entry(i, j) == block.entry(0, 0)
                elif j != i + 1:
                    assert block.entry(i, j).is_zero
        C = module.coupling
        for i in range(1, module.N - 1):
            assert block.entry(i, i + 1) * C.entry(0, 1).constant_value() \
                == block.entry(0, 1) * C.entry(i, i + 1).constant_value()
        mu[label] = block.entry(0, 1)
    return mu


class TestTopWeightBlock:
    def test_twist_reads_nu_on_the_top_weight_space(self):
        # on the top weight space v_Lambda (x) J_2(nu), each Cartan element
        # h acts by [[lambda(h), mu(h)], [0, lambda(h)]] with mu = nu
        T = twist(GL_TRIV, TwistSpec(2, (Fraction(2), Fraction(-3))))
        top = [pos for pos, shift in enumerate(T.shifts)
               if shift == T.shifts[0]]
        assert top == [0, GL_TRIV.dim]
        params = GL_TRIV.params
        for label, mu in ((GenLabel("y"), 2), (GenLabel("z0"), -3),
                          (GenLabel("h", 1), 0)):
            block = block_matrices(T)[label].submatrix(top, top)
            assert block.entry(0, 0) == block.entry(1, 1)
            assert block.entry(1, 0).is_zero
            assert block.entry(0, 1) == ParamPoly.const(params, mu)

    def test_replication_gives_hypercharge_direction(self):
        mu = top_weight_mu(replicate(GL_TRIV,
                                     ReplicationSpec(2, (Fraction(7),))))
        assert mu[GenLabel("y")] == ParamPoly.const(GL_TRIV.params, 7)
        assert mu[GenLabel("z0")].is_zero
        assert mu[GenLabel("h", 1)].is_zero

    def test_annihilates_semisimple_cartan(self):
        T = twist(GL_A1, TwistSpec(2, (Fraction(1), Fraction(1))))
        mu = top_weight_mu(T)
        assert mu[GenLabel("h", 1)].is_zero
        assert mu[GenLabel("y")] == ParamPoly.const(GL_A1.params, 1)

    def test_three_copies_carry_nu_on_each_superdiagonal(self):
        T = twist(GL_TRIV, TwistSpec(3, (Fraction(1), Fraction(0))))
        mu = top_weight_mu(T)
        assert mu[GenLabel("y")] == ParamPoly.const(GL_TRIV.params, 1)
        assert mu[GenLabel("z0")].is_zero

    def test_faithful_on_directions(self):
        # distinct directions give non-proportional functionals
        mu1 = top_weight_mu(twist(GL_TRIV, TwistSpec(2, (1, 0))))
        mu2 = top_weight_mu(twist(GL_TRIV, TwistSpec(2, (0, 1))))
        y, z0 = GenLabel("y"), GenLabel("z0")
        det = mu1[y] * mu2[z0] - mu1[z0] * mu2[y]
        assert not det.is_zero


Z0 = {GenLabel("z0"): Fraction(1)}


def top_degree(module) -> int:
    """Minimal polynomial degree of z0 on the highest weight space."""
    top = tuple(c.substitute(GL_BINDINGS).constant_value()
                for c in module.hw)
    return jordan_minpoly_profile(module, GL_BINDINGS, Z0)[top]


class TestDegreeGap:
    def test_transverse_directions_distinguished(self):
        # z0 annihilates nu = (1, 0) but not mu = (0, 1): at the highest
        # weight its minimal polynomial has degree 1 on the twist by nu and
        # the full Jordan depth n on the twist by mu
        for n in (2, 3):
            degrees = tuple(top_degree(twist(GL_TRIV, TwistSpec(n, d)))
                            for d in ((1, 0), (0, 1)))
            assert degrees == (1, n)

    def test_degree_gap_grows_with_n(self):
        gaps = [top_degree(twist(GL_TRIV, TwistSpec(n, (0, 1))))
                - top_degree(twist(GL_TRIV, TwistSpec(n, (1, 0))))
                for n in (1, 2, 3, 4)]
        assert gaps == [0, 1, 2, 3]

    def test_proportional_is_isomorphic(self):
        # equal degrees, and diag(2, 1) (x) I conjugates one into the other
        source = twist(GL_TRIV, TwistSpec(2, (0, 1)))
        target = twist(GL_TRIV, TwistSpec(2, (0, 2)))
        assert top_degree(source) == top_degree(target) == 2
        assert conjugation_check(source, target, (2, 1)).ok
        assert conjugation_check(source, source, (1, 1)).ok


class TestReductionToBaseDimension:
    """The violating pairs of identities (i)-(iii) at base dimension are
    exactly the pairs check_super_relations finds on the materialized
    N-fold blocks, for the true deformation and for corrupted ones."""

    MODULES = [("sl", 2, 1, (0,)), ("sl", 2, 1, (1,)), ("sl", 2, 1, (2,)),
               ("gl", 2, 1, (0,)), ("gl", 2, 1, (1,)), ("sl", 3, 1, (1, 0))]
    # C^2 = 0 at N = 3, so (iii) does not apply
    ZERO_COUPLING = (Fraction(1), Fraction(0))
    # N = 1, 2, 3, 3, 3, 4
    COUPLINGS = [()] + list(COUPLING_SETS) + \
        [ZERO_COUPLING, (Fraction(2), Fraction(-3, 5), Fraction(1))]
    DIRECTIONS = {"sl": [(Fraction(-2, 3),)], "gl": [(0, 1), (2, -3)]}

    @staticmethod
    def block_pairs(D, C):
        """Violating pairs on the materialized blocks of the block module
        of D with coupling matrix C, asserted equal to those of identities
        (i)-(iii) at base dimension."""
        module = ReplicatedModule(D, C, None)
        N = module.N
        reduced = superbracket_violations(D.A, D.base.sc)
        for violations in derivative_violations(D, module.index).values():
            reduced += violations
        blocks = block_matrices(module)
        full = superbracket_violations(blocks, D.base.sc)
        assert {pair for pair, _ in reduced} == {pair for pair, _ in full}
        # from N = 2 a Cartan block holds a Jordan block, not a diagonal,
        # so the root-space certificate declines and the verdict above is
        # the pairwise loop's
        sc = D.base.sc
        certified = algebra._certified(
            sc.basis, sc.generators, sc.table,
            extend_matrices(blocks, sc.recipes), sc.root_weights)
        assert certified == (N == 1 and not full)
        assert check_super_relations(blocks, D.base.sc).ok == (not full)
        return {pair for pair, _ in full}

    @pytest.mark.parametrize("flavor,m,n,a", MODULES)
    def test_true_deformation(self, flavor, m, n, a):
        K, _ = build_kac(flavor, m, n, a)
        # the dim-48 sl(3|1) module keeps to N = 1, 3 and n = 3: its
        # materialized N = 4 blocks alone take seconds to check
        small = K.dim <= 16
        for couplings in self.COUPLINGS if small else [(), COUPLING_SETS[-1]]:
            assert self.block_pairs(odd_derivative(K),
                                    superdiagonal(couplings)) == set()
        for nu in self.DIRECTIONS[flavor]:
            for n_twist in (2, 3) if small else (3,):
                T = twist(K, TwistSpec(n_twist, nu))
                assert self.block_pairs(T.deformation, T.coupling) == set()

    @pytest.mark.parametrize("D", [odd_derivative(OCTET),
                                   deformation(GL_A1, 2, -3)],
                             ids=["sl21_a1_hypercharge", "gl21_a1_twist"])
    def test_corrupted_deformations(self, D):
        u1 = GenLabel("u", 1)
        bad_a = D.replace(A={**D.A, u1: D.A[u1].scale(2)})
        for couplings in self.COUPLINGS[1:3] + [self.ZERO_COUPLING]:
            assert self.block_pairs(bad_a, superdiagonal(couplings))
