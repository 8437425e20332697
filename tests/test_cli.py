"""CLI behaviour, JSON schema, round trips and determinism."""

import json
import os
import shlex
import stat
import threading
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from superkac import algebra, cli, jsonio
from superkac.algebra import (SuperAlgebraSpec, algebra_of,
                              build_fundamental_rep, structure_constants)
from superkac.cli import main
from superkac.evenrep import build_even_irrep
from superkac.exact import ParamPoly, PolyMatrix
from superkac.kacmod import induce


def build_kac(flavor, m, n, a):
    rep = build_fundamental_rep(SuperAlgebraSpec(m, n, flavor))
    sc = structure_constants(rep)
    L = build_even_irrep(a, sc)
    return induce(L, sc)


class TestExitCodes:
    def test_build_ok(self, tmp_path, capsys):
        out = tmp_path / "module.json"
        code = main(["build", "--algebra", "sl", "--m", "2", "--n", "1",
                     "--labels", "0", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "dimension 4" in capsys.readouterr().out

    def test_sl_nn_rejected_with_exit_2(self, capsys):
        code = main(["build", "--algebra", "sl", "--m", "2", "--n", "2",
                     "--labels", "0,0,0"])
        assert code == 2
        assert "rejected" in capsys.readouterr().err

    def test_zero_coupling_exit_2(self):
        assert main(["replicate", "--algebra", "sl", "--m", "2", "--n", "1",
                     "--labels", "0", "--N", "2", "--lambdas", "0"]) == 2

    def test_non_dominant_labels_exit_2(self):
        assert main(["build", "--algebra", "sl", "--m", "2", "--n", "1",
                     "--labels", "-1"]) == 2

    def test_verify_passes(self):
        assert main(["verify", "--algebra", "gl", "--m", "2", "--n", "1",
                     "--labels", "1"]) == 0

    def test_replicate_and_twist_and_heisenberg(self, tmp_path):
        assert main(["replicate", "--algebra", "sl", "--m", "2", "--n", "1",
                     "--labels", "0", "--N", "3", "--lambdas", "1,1"]) == 0
        assert main(["twist", "--algebra", "gl", "--m", "2", "--n", "1",
                     "--labels", "0", "--nu", "0,1", "--n-twist", "2"]) == 0
        assert main(["heisenberg", "--algebra", "gl", "--m", "2", "--n", "1",
                     "--labels", "0", "--nu", "2,-3", "--n-twist", "2"]) == 0

    def test_typicality_report(self, capsys):
        assert main(["typicality", "--algebra", "sl", "--m", "2", "--n", "1",
                     "--labels", "1", "--b", "0"]) == 0
        captured = capsys.readouterr().out
        assert "atypical of type [1]" in captured

    def test_config_file_unknown_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"action": "build", "frobnicate": 1}))
        code = main(["build", "--config", str(cfg)])
        assert code == 2
        assert "unknown config fields" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["verify", 5])
    def test_config_action_other_than_the_verb_rejected(self, tmp_path,
                                                         capsys, action):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"action": action}))
        assert main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: config action {action!r} differs "
                                "from the verb 'build'\n")
        assert captured.out == ""

    def test_config_action_equal_to_the_verb_accepted(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"action": "verify", "labels": [1]}))
        assert main(["verify", "--config", str(cfg)]) == 0

    def test_every_flag_sets_the_config_field_of_its_dest(self):
        dests = {action.dest for action in cli.make_parser()._actions}
        assert dests - {"help"} == set(cli.JobConfig._fields) | {"config"}

    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(
            {"flavor": "gl", "m": 2, "n": 1, "labels": [1]}))
        assert main(["verify", "--config", str(cfg)]) == 0


class TestConfigValidation:
    def test_abbreviated_flag_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"labels": [0], "N": 3, "lambdas": [1, 1]}))
        assert main(["replicate", "--config", str(cfg), "--lam", "2,3"]) == 0
        assert "couplings=['2', '3']" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,config,field", [
        (["typicality", "--b", "1/0"], None, "b"),
        (["build"], {"m": "2"}, "m"),
        (["build"], {"labels": "10"}, "labels"),
        (["build"], {"b": 0.5}, "b"),
        (["build", "--labels", "1,x"], None, "labels"),
        (["replicate", "--N", "3"], {"lambdas": [1, "1/0"]}, "lambdas"),
    ])
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, argv,
                                         config, field):
        if config is not None:
            path = tmp_path / "job.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {field} ")

    @pytest.mark.parametrize("action", ["typicality", "replicate", "build"])
    def test_gl_with_bound_b_needs_bound_c(self, capsys, action):
        assert main([action, "--algebra", "gl", "--b", "5/7"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: c ")
        assert main([action, "--algebra", "gl", "--b", "5/7",
                     "--c", "3/11"]) == 0

    @pytest.mark.parametrize("argv,config", [
        (["verify", "--c", "1"], None),
        (["typicality", "--b", "5/7", "--c", "3/11"], None),
        (["verify"], {"c": "1"}),
    ])
    def test_sl_job_refuses_a_rational_c(self, tmp_path, capsys, argv,
                                         config):
        if config is not None:
            path = tmp_path / "job.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: c ")
        assert "sl job" in err

    @pytest.mark.parametrize("argv,config", [
        (["twist", "--nu", "1,0"], None),
        (["heisenberg", "--nu", "1,0"], None),
        (["twist"], {"nu": [1, 0]}),
        (["heisenberg"], {"nu": ["1", "0"]}),
    ])
    def test_sl_job_refuses_a_two_component_nu(self, tmp_path, capsys,
                                               monkeypatch, argv, config):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "job.json").write_text(json.dumps(config))
            argv = argv + ["--config", "job.json"]
        assert main(argv + ["--algebra", "sl", "--out", "t.json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: nu ")
        assert "sl" in err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("argv,config,field", [
        (["twist", "--nu", "1", "--N", "3"], None, "N"),
        (["replicate", "--n-twist", "5"], None, "n_twist"),
        (["heisenberg", "--lambdas", "2"], None, "lambdas"),
        (["verify", "--b", "5/7"], None, "b"),
        (["verify", "--algebra", "gl", "--b", "5/7", "--c", "3/11"], None,
         "b"),
        (["build"], {"nu": [1]}, "nu"),
        (["typicality", "--b", "0"], {"N": 3}, "N"),
        (["twist", "--nu", "1"], {"lambdas": [2]}, "lambdas"),
        (["verify", "--algebra", "gl"], {"c": "1"}, "c"),
    ])
    def test_field_the_verb_never_reads_is_refused(
            self, tmp_path, capsys, monkeypatch, argv, config, field):
        def never(cfg):
            raise AssertionError("the job ran")

        monkeypatch.setattr(cli, "_build_stack", never)
        if config is not None:
            path = tmp_path / "job.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {field} is not read by {argv[0]}")


class TestFieldNamedErrors:
    """A path that cannot be read or written exits 2 with a message that
    starts with the field it came from."""

    def test_missing_config(self, tmp_path, capsys):
        assert main(["build", "--config", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("error: config ")

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text('{"m": 2,')
        assert main(["build", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ")
        assert "not valid JSON" in err

    @pytest.mark.parametrize("field", ["out", "report"])
    def test_unwritable_path(self, tmp_path, capsys, field):
        assert main(["verify" if field == "report" else "build",
                     f"--{field}", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} ")
        assert "Is a directory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["out", "report"])
    def test_file_in_a_read_only_directory_fails_before_the_job(
            self, tmp_path, capsys, monkeypatch, field):
        """The file is written beside its path and moved onto it, so a
        writable file in a directory that cannot be written is refused up
        front, as an unwritable file is."""
        def never(cfg):
            raise AssertionError("the job ran")

        monkeypatch.setattr(cli, "_build_stack", never)
        path = tmp_path / f"{field}.json"
        path.write_text("OLD CONTENT")
        directory, access = os.path.realpath(tmp_path), os.access
        monkeypatch.setattr(os, "access", lambda p, mode: access(p, mode)
                            and os.path.realpath(p) != directory)
        assert main(["verify" if field == "report" else "export",
                     f"--{field}", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} ")
        assert "Permission denied" in captured.err
        assert path.read_text() == "OLD CONTENT"

    @pytest.mark.parametrize("argv,field", [
        (["export", "--out"], "out"),
        (["verify", "--report"], "report"),
    ])
    def test_fifo_is_written_through(self, tmp_path, monkeypatch, argv,
                                     field):
        """A path that is not a regular file, such as a FIFO, /dev/null or
        /dev/stdout, is written through.  It is not replaced by a file,
        and its directory need not be writable."""
        fifo, link = tmp_path / "fifo", tmp_path / "stdout"
        os.mkfifo(fifo)
        link.symlink_to(fifo)
        directory, access = os.path.realpath(tmp_path), os.access
        monkeypatch.setattr(os, "access", lambda p, mode: access(p, mode)
                            and os.path.realpath(p) != directory)
        chunks = []

        def read():
            with open(fifo, "rb") as handle:
                chunks.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        assert main(argv + [str(link)]) == 0
        reader.join(timeout=60)
        assert isinstance(json.loads(chunks[0]), dict)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["fifo", "stdout"]

    @pytest.mark.parametrize("argv,field", [
        (["export", "--out"], "out"),
        (["verify", "--report"], "report"),
    ])
    def test_job_failing_while_it_writes_leaves_the_old_file(
            self, tmp_path, capsys, monkeypatch, argv, field):
        """Running out of memory halfway through writing the file exits 2
        and leaves the old bytes, and no temporary file, behind."""
        path = tmp_path / f"{field}.json"
        path.write_text("OLD CONTENT")
        quote, calls = jsonio._quote, []

        def exhausted(text):
            calls.append(text)
            if len(calls) > 20:
                raise MemoryError
            return quote(text)

        monkeypatch.setattr(jsonio, "_quote", exhausted)
        assert main(argv + [str(path)]) == 2
        assert "does not fit in memory" in capsys.readouterr().err
        assert len(calls) > 20
        assert path.read_text() == "OLD CONTENT"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("argv,field", [
        (["verify", "--report"], "report"),
        (["replicate", "--N", "3", "--out"], "out"),
        (["export", "--out"], "out"),
    ])
    def test_missing_directory_fails_before_the_job(
            self, tmp_path, capsys, monkeypatch, argv, field):
        def never(cfg):
            raise AssertionError("the job ran")

        monkeypatch.setattr(cli, "_build_stack", never)
        path = tmp_path / "missing" / "r.json"
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} ")
        assert "No such file or directory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("action,field", [
        ("verify", "out"), ("typicality", "out"),
        ("build", "report"), ("export", "report"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_path_the_verb_never_writes_is_refused(
            self, tmp_path, capsys, monkeypatch, action, field, source):
        def never(cfg):
            raise AssertionError("the job ran")

        monkeypatch.setattr(cli, "_build_stack", never)
        path = tmp_path / "never.json"
        argv = [action, "--b", "0"] if action == "typicality" else [action]
        if action == "export":
            argv += ["--out", str(tmp_path / "module.json")]
        if source == "flag":
            argv += [f"--{field}", str(path)]
        else:
            config = tmp_path / "job.json"
            config.write_text(json.dumps({field: str(path)}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} is not written by "
                                       f"{action}")
        assert captured.out == ""
        assert not path.exists()

    def test_failing_job_keeps_the_old_artifact(self, tmp_path):
        out = tmp_path / "module.json"
        out.write_text("old")
        assert main(["replicate", "--N", "2", "--lambdas", "0",
                     "--out", str(out)]) == 2
        assert out.read_text() == "old"

    def test_memory_error_names_the_size_fields(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli.mat, "replicate", exhausted)
        assert main(["replicate", "--N", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "size fields (N, n-twist, labels)" in err


class TestNegativeFlagValues:
    """A value that starts with '-' reads the same after a space as after
    '='."""

    @pytest.mark.parametrize("argv,code", [
        (["typicality", "--b", "-5/7"], 0),
        (["typicality", "--algebra", "gl", "--b", "1", "--c", "-3/11"], 0),
        (["twist", "--algebra", "gl", "--m", "2", "--n", "1", "--labels", "0",
          "--nu", "-1,2"], 0),
        (["replicate", "--labels", "0", "--N", "3", "--lambdas", "-1,4/3"], 0),
        (["replicate", "--N", "3", "--lam", "-1,4/3"], 0),
        (["build", "--m", "3", "--n", "1", "--labels", "-1,0"], 2),
    ])
    def test_space_form_matches_equals_form(self, capsys, argv, code):
        assert main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == code
        expected = capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr() == expected


def readme_examples() -> list:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("Examples:", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("superkac ")]


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


def exported(tmp_path, data) -> dict:
    """data as jsonio.export_json writes it, read back."""
    path = tmp_path / "exported.json"
    jsonio.export_json(data, str(path))
    return json.loads(path.read_text(encoding="utf-8"))


class TestSerialization:
    def test_poly_round_trip(self):
        params = ("b", "c")
        p = (ParamPoly.var(params, "b") * 3 -
             ParamPoly.const(params, Fraction(1, 4)) +
             ParamPoly.var(params, "c") * ParamPoly.var(params, "b"))
        data = jsonio.poly_to_json(p)
        assert data["1"] == "-1/4"
        assert jsonio.poly_from_json(data, params) == p

    def test_matrix_round_trip(self, tmp_path):
        params = ("b",)
        b = ParamPoly.var(params, "b")
        m = PolyMatrix(2, 3, params, {(0, 1): b + 1, (1, 2): b * b})
        data = exported(tmp_path, partial(jsonio._write_matrix, m, None))
        assert jsonio.matrix_from_json(data) == m

    def test_module_round_trip_exact(self, tmp_path):
        K = build_kac("gl", 2, 1, (1,))
        data = exported(tmp_path, jsonio.module_to_json(K))
        rebuilt = jsonio.module_matrices_from_json(data)
        assert set(rebuilt) == set(K.matrices)
        for lab, mat in K.matrices.items():
            assert rebuilt[lab] == mat

    def test_exported_quartet_hypercharge_diagonal(self, tmp_path):
        # diagonal entries are y0, y0-1, y0-1, y0-2 with y0 = -2b in the
        # unit-grading normalization
        K = build_kac("sl", 2, 1, (0,))
        data = exported(tmp_path, jsonio.module_to_json(K))
        y = data["generators"]["y"]
        diag = {r: poly for r, c, poly in y["entries"] if r == c}
        assert diag[0] == {"b^1": "-2"}
        assert diag[1] == diag[2] == {"1": "-1", "b^1": "-2"}
        assert diag[3] == {"1": "-2", "b^1": "-2"}

    def test_bound_export_substitutes(self, tmp_path):
        K = build_kac("sl", 2, 1, (0,))
        data = exported(tmp_path,
                        jsonio.module_to_json(K, {"b": Fraction(5, 7)}))
        y = data["generators"]["y"]
        diag = {r: poly for r, c, poly in y["entries"] if r == c}
        assert diag[0] == {"1": "-10/7"}
        assert data["bindings"] == {"b": "5/7"}


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        paths = []
        for run in (1, 2):
            out = tmp_path / f"run{run}.json"
            assert main(["export", "--algebra", "gl", "--m", "2", "--n", "1",
                         "--labels", "1", "--out", str(out)]) == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_report_schema_stable(self, tmp_path):
        blobs = []
        for run in (1, 2):
            report = tmp_path / f"report{run}.json"
            assert main(["verify", "--algebra", "sl", "--m", "2", "--n", "1",
                         "--labels", "2", "--report", str(report)]) == 0
            blobs.append(report.read_bytes())
        assert blobs[0] == blobs[1]
        parsed = json.loads(blobs[0])
        assert parsed["ok"] is True
        assert all(set(item) == {"name", "passed", "location", "residual"}
                   for item in parsed["checks"])

    def test_structure_constants_export_deterministic(self):
        rep = build_fundamental_rep(SuperAlgebraSpec(2, 3, "sl"))
        sc1 = structure_constants(rep)
        sc2 = structure_constants(build_fundamental_rep(
            SuperAlgebraSpec(2, 3, "sl")))
        assert sc1.basis == sc2.basis
        assert list(sc1.table.items()) == list(sc2.table.items())


class TestSharedAlgebra:
    """Every job on one spec shares the table ``algebra_of`` builds."""

    def test_one_table_per_spec(self, monkeypatch):
        built = []
        real = algebra.structure_constants

        def counted(rep):
            built.append(rep.spec)
            return real(rep)

        monkeypatch.setattr(algebra, "structure_constants", counted)
        algebra_of.cache_clear()
        for action in ("verify", "build"):
            assert cli.run(cli.JobConfig(action=action, m=3, n=1,
                                         labels=(1, 0))) == 0
        assert built == [SuperAlgebraSpec(3, 1, "sl")]
        assert cli.run(cli.JobConfig(action="verify", m=2, n=1)) == 0
        assert built == [SuperAlgebraSpec(3, 1, "sl"),
                         SuperAlgebraSpec(2, 1, "sl")]

    @pytest.mark.parametrize("argv", [
        ["build"], ["export", "--out", "{tmp}/module.json"],
        ["typicality", "--b", "0"], ["verify"], ["replicate", "--N", "3"],
        ["twist", "--nu", "1"], ["heisenberg"]], ids=lambda argv: argv[0])
    def test_no_verb_changes_the_shared_table(self, tmp_path, argv):
        spec = SuperAlgebraSpec(3, 1, "sl")
        shared = algebra_of(spec)
        assert main([arg.format(tmp=tmp_path) for arg in argv]
                    + ["--m", "3", "--n", "1", "--labels", "1,0"]) == 0
        fresh = structure_constants(build_fundamental_rep(spec))
        assert algebra_of(spec) is shared
        assert (shared.basis, shared.recipes, shared.table) == \
            (fresh.basis, fresh.recipes, fresh.table)
