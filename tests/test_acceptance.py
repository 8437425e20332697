"""Acceptance suite: the exit criteria of the build, one test per criterion.

Every check is exact (zero tolerance); the suite prints one PASS line per
criterion.  Two constants deserve a note.  The sl(2|1) contraction constant
is k = -1/2 under the unit hypercharge grading [y, u] = u fixed in the
algebra layer; the alternative diag(n,m)/(m+n) scaling would give 3/2 but
breaks both the unit grading and the integer layer spectrum, so it is not
used anywhere.  And the minimal-polynomial degrees distinguishing transverse
twist directions are (k, k+n-1), a gap of n-1: the tensor of Jordan blocks
of sizes k1 and k2 has largest block k1+k2-1, not k1+k2.
"""

import itertools
import json
from fractions import Fraction
from math import comb

import pytest

from superkac import heisenberg as hsb
from superkac import jsonio
from superkac import matryoshka as mat
from superkac.algebra import (GenLabel, InputError, SuperAlgebraSpec,
                              build_fundamental_rep, check_super_relations,
                              grading_report, structure_constants,
                              super_jacobi_report)
from superkac.cli import main as cli_main
from superkac.evenrep import build_even_irrep
from superkac.exact import PolyMatrix
from superkac.kacmod import induce, kac_typicality, singular_vectors
from block_oracle import block_matrices, jordan_minpoly_profile
from rescaling import conjugation_check, rescale_conjugation_check
from testmatrix import (ALGEBRA_CONFIGS, COUPLING_SETS, GENERIC_B,
                        KAC_CONFIGS, bindings_for)

_STACKS = {}
_MODULES = {}


def stack(flavor, m, n):
    key = (flavor, m, n)
    if key not in _STACKS:
        rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
        _STACKS[key] = (rep, structure_constants(rep))
    return _STACKS[key]


def kac(flavor, m, n, a):
    key = (flavor, m, n, tuple(a))
    if key not in _MODULES:
        rep, sc = stack(flavor, m, n)
        L = build_even_irrep(a, sc)
        _MODULES[key] = induce(L, sc)
    return _MODULES[key]


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_structure_constant_soundness():
    for cfg in ALGEBRA_CONFIGS:
        rep, sc = stack(cfg["flavor"], cfg["m"], cfg["n"])
        assert super_jacobi_report(sc).ok, f"Jacobi failed for {sc.spec}"
        assert grading_report(sc).ok, f"grading failed for {sc.spec}"
        assert sc.k != 0
    _, sc21 = stack("sl", 2, 1)
    assert sc21.k == Fraction(-1, 2)
    report(1, "super-Jacobi, grading and k != 0 for gl/sl (2|1),(3|1),(2|3); "
              "sl(2|1) has k = -1/2 in the unit-grading normalization")


def test_criterion_2_kac_module_relations():
    for cfg in KAC_CONFIGS:
        K = kac(cfg["flavor"], cfg["m"], cfg["n"], cfg["a"])
        rep, sc = stack(cfg["flavor"], cfg["m"], cfg["n"])
        result = check_super_relations(K.matrices, sc, str(cfg))
        assert result.ok, result.summary()
        assert K.dim == 2 ** K.odd_count * K.L.dim
        y = K.matrices[GenLabel("y")]
        for pos, layer in enumerate(K.layers):
            assert y.entry(pos, pos) == K.L.y_scalar - layer
        sizes = {}
        for layer in K.layers:
            sizes[layer] = sizes.get(layer, 0) + 1
        assert sizes == {l: comb(K.odd_count, l) * K.L.dim
                         for l in range(K.odd_count + 1)}
    report(2, "exact symbolic relations, dimension 2^P dim(L0) and hypercharge "
              f"spectrum y0 - layer on {len(KAC_CONFIGS)} modules")


def test_criterion_3_degree_profile():
    for cfg in KAC_CONFIGS:
        K = kac(cfg["flavor"], cfg["m"], cfg["n"], cfg["a"])
        for lab, matx in K.matrices.items():
            if lab.kind == "u":
                assert matx.degree("b") <= 1
            elif lab.kind in ("e", "f", "h", "v", "z0"):
                assert matx.degree("b") == 0
    report(3, "deg_b(u) <= 1 and deg_b(e,f,h,v,z0) = 0 on every module")


def test_criterion_4_typicality_and_singular_vectors():
    for cfg in KAC_CONFIGS:
        K = kac(cfg["flavor"], cfg["m"], cfg["n"], cfg["a"])
        ty = kac_typicality(K)
        assert ty.roots_match, f"root multisets differ for {cfg}"
        assert ty.proportional
        binds = bindings_for(cfg["flavor"])
        hw = K.hw

        for root, _ in ty.factor_roots:
            bound = dict(binds, b=root)
            sv = singular_vectors(K, bound)
            extra = [v for v in sv.vectors if v.layer > 0]
            assert len(extra) == 1, f"no extra singular vector for {cfg} b={root}"
            (itype,) = ty.vanishing_types(root)
            beta_i = K.sc.datum.odd_positive_roots[itype - 1]
            at_beta_i = tuple(c.substitute(bound).constant_value() - x
                              for c, x in zip(hw, beta_i))
            if extra[0].layer == 1:
                assert extra[0].weight == at_beta_i
            else:
                # the even quotient killed the layer-1 candidate; the vector
                # slides to the bottom of the sub-wedge on beta_1..beta_i
                partial = [Fraction(0)] * len(hw)
                for j in range(itype):
                    partial = [p + x for p, x in
                               zip(partial, K.sc.datum.odd_positive_roots[j])]
                deep = tuple(c.substitute(bound).constant_value() - x
                             for c, x in zip(hw, partial))
                assert extra[0].weight == deep
                assert extra[0].layer == itype

        generic = singular_vectors(K, dict(binds, b=GENERIC_B))
        assert len(generic.vectors) == 1
        assert generic.vectors[0].coefficients == \
            ((0, Fraction(1)),)
    report(4, "root multisets of s(b) match the odd-root factors; each "
              "atypical point adds exactly one singular vector at the "
              "predicted weight; b = 5/7 has none beyond the highest weight")


def test_criterion_5_derivative_identity():
    for cfg in KAC_CONFIGS:
        K = kac(cfg["flavor"], cfg["m"], cfg["n"], cfg["a"])
        rep, sc = stack(cfg["flavor"], cfg["m"], cfg["n"])
        D = mat.odd_derivative(K)
        eye = PolyMatrix.identity(K.dim, K.params)
        P = K.odd_count
        for i, j in itertools.product(range(1, P + 1), repeat=2):
            up = D.B[GenLabel("u", i)]
            v = K.matrices[GenLabel("v", j)]
            expected = eye.scale(sc.k) if i == j else \
                PolyMatrix(K.dim, K.dim, K.params)
            assert up @ v + v @ up == expected
    report(5, "{u'_i, v_j} = k delta_ij I exactly on every test module")


def test_criterion_6_matryoshka_theorem():
    base_cases = [("sl", 2, 1, (0,)), ("sl", 2, 1, (1,)), ("gl", 2, 1, (1,))]
    for flavor, m, n, a in base_cases:
        K = kac(flavor, m, n, a)
        rep, sc = stack(flavor, m, n)
        binds = bindings_for(flavor)
        for lams in COUPLING_SETS:
            N = len(lams) + 1
            R = mat.replicate(K, mat.ReplicationSpec(N, lams))
            blocks = block_matrices(R)
            result = check_super_relations(blocks, sc, f"N={N}")
            assert result.ok, result.summary()
            for lab in K.matrices:
                for t in range(N):
                    copy = range(t * K.dim, (t + 1) * K.dim)
                    assert blocks[lab].submatrix(copy, copy) == \
                        K.matrices[lab]
            profile = jordan_minpoly_profile(
                R, dict(binds, b=GENERIC_B), {GenLabel("y"): Fraction(1)})
            assert set(profile.values()) == {N}
        for lam in (Fraction(1), Fraction(2), Fraction(-3, 5)):
            assert rescale_conjugation_check(K, (lam,)).ok
    report(6, "N in {2,3} replications with couplings (1), (1,1), (2,-3/5): "
              "exact relations, base diagonal blocks, Jordan degree N on "
              "every weight space, and the rescaling conjugation identity")


def test_criterion_7_self_extension_isomorphism():
    K = kac("gl", 2, 1, (0,))
    n = 2
    binds = bindings_for("gl")
    top = tuple(c.substitute(binds).constant_value() for c in K.hw)
    # z0 annihilates the y direction nu = (1, 0) but not mu = (0, 1), so its
    # minimal polynomial degrees (k, k+n-1) at the highest weight, with
    # k = 1 on the diagonal base, tell the twists apart: the twist along
    # the annihilated direction stays semisimple while the transverse one
    # reaches the full Jordan depth n
    degrees = tuple(
        jordan_minpoly_profile(mat.twist(K, mat.TwistSpec(n, d)), binds,
                               {GenLabel("z0"): Fraction(1)})[top]
        for d in ((1, 0), (0, 1)))
    assert degrees == (1, n)
    # proportional directions: diag(2, 1) (x) I conjugates the twist by nu
    # into the twist by 2 nu on every generator
    same = conjugation_check(mat.twist(K, mat.TwistSpec(n, (1, 0))),
                             mat.twist(K, mat.TwistSpec(n, (2, 0))), (2, 1))
    assert same.ok, same.summary()
    report(7, "transverse twist directions on gl(2|1) are not isomorphic "
              "(minimal polynomial degrees 1 vs n); proportional directions "
              "are isomorphic")


def test_criterion_8_heisenberg_module():
    cases = [("gl", 2, 1, (0,), mat.TwistSpec(2, (1, 0))),
             ("gl", 2, 1, (1,), mat.TwistSpec(2, (2, -3))),
             ("gl", 2, 1, (0,), mat.TwistSpec(3, (0, 1))),
             ("sl", 2, 1, (1,), mat.TwistSpec(2, (1,))),
             ("sl", 3, 1, (0, 0), mat.TwistSpec(2, (1,)))]
    for flavor, m, n, a, tspec in cases:
        K = kac(flavor, m, n, a)
        rep, sc = stack(flavor, m, n)
        H = hsb.build_heisenberg(sc)
        T = mat.twist(K, tspec)
        assert hsb.affine_in_t_report(T).ok
        phi = hsb.phi_map(T, H)
        assert hsb.check_phi_representation(phi).ok
        assert hsb.mixed_derivative_report(T).ok
        compare = hsb.compare_with_KH(phi)
        assert compare.ok, compare.summary()
    report(8, "rho_t affine in t, phi satisfies every H bracket identity, and "
              "phi equals the directly induced K_H on all generator matrices")


def test_criterion_9_negative_controls(capsys):
    assert cli_main(["build", "--algebra", "sl", "--m", "2", "--n", "2",
                     "--labels", "0,0,0"]) == 2
    assert cli_main(["build", "--algebra", "sl", "--m", "3", "--n", "3",
                     "--labels", "0,0,0,0"]) == 2
    with pytest.raises(InputError):
        mat.ReplicationSpec(2, (Fraction(0),))
    with pytest.raises(InputError):
        rep, sc = stack("sl", 2, 1)
        build_even_irrep((-1,), sc)
    capsys.readouterr()
    report(9, "sl(n|n) exits with code 2; zero couplings and non-dominant "
              "labels are rejected")


def test_criterion_10_determinism(tmp_path):
    blobs = []
    for run in (1, 2):
        out = tmp_path / f"artifact{run}.json"
        code = cli_main(["export", "--algebra", "gl", "--m", "2", "--n", "1",
                         "--labels", "1", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    K = kac("sl", 3, 1, (1, 0))
    K2 = induce(build_even_irrep((1, 0), K.sc), K.sc)
    blobs = []
    for run, module in enumerate((K, K2)):
        path = tmp_path / f"module{run}.json"
        jsonio.export_json(jsonio.module_to_json(module), str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["dim"] == K.dim
    report(10, "independent runs produce byte-identical JSON artifacts")
