"""The Record contract: fields from annotations, defaults, validation at
construction, frozen instances, value equality and ``replace``; and an
import of the package that generates no code."""

import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superkac.algebra import (GenLabel, InputError, SuperAlgebraSpec,
                              build_fundamental_rep, structure_constants)
from superkac.cli import JobConfig, main
from superkac.matryoshka import ReplicationSpec, TwistSpec
from superkac.record import Record
from superkac.report import CheckItem, VerificationReport

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
             "import superkac.cli; "
             "print(superkac.cli.__file__, "
             "'dataclasses' in sys.modules, 'inspect' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe],
                         capture_output=True, text=True, check=True).stdout
    path, dataclasses, inspect = out.split()
    assert Path(path).parent == SRC / "superkac"
    assert (dataclasses, inspect) == ("False", "False")


class TestConstruction:
    def test_by_position_and_by_keyword(self):
        spec = SuperAlgebraSpec(3, 1, "sl")
        assert spec == SuperAlgebraSpec(m=3, n=1, flavor="sl")
        assert spec == SuperAlgebraSpec(3, flavor="sl", n=1)
        assert (spec.m, spec.n, spec.flavor) == (3, 1, "sl")
        assert SuperAlgebraSpec._fields == ("m", "n", "flavor")

    def test_defaults(self):
        item = CheckItem("x", True)
        assert (item.location, item.residual) == (None, None)
        assert CheckItem("x", False, "here") == \
            CheckItem(name="x", passed=False, location="here", residual=None)
        cfg = JobConfig("build")
        assert (cfg.flavor, cfg.m, cfg.n, cfg.labels, cfg.out) == \
            ("sl", 2, 1, (), None)

    def test_mutable_default_is_fresh_per_instance(self):
        first, second = VerificationReport("a"), VerificationReport("b")
        first.add_pass("check")
        assert len(first.items) == 1 and second.items == []
        assert VerificationReport.items == []

    @pytest.mark.parametrize("args,kwargs", [
        ((2, 1, "sl", 4), {}),
        ((2, 1), {}),
        ((2, 1, "sl"), {"m": 2}),
        ((2, 1, "sl"), {"rank": 1}),
    ], ids=["too-many", "missing", "repeated", "unknown"])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            SuperAlgebraSpec(*args, **kwargs)

    def test_validation_runs_at_construction(self):
        with pytest.raises(InputError, match="flavor"):
            SuperAlgebraSpec(2, 1, "so")
        spec = ReplicationSpec(3, (1, "2/3"))
        assert spec.lambdas == (Fraction(1), Fraction(2, 3))


class TestFrozen:
    def test_assignment_and_deletion_raise(self):
        spec = SuperAlgebraSpec(2, 1, "sl")
        with pytest.raises(AttributeError):
            spec.m = 3
        with pytest.raises(AttributeError):
            del spec.flavor
        with pytest.raises(AttributeError):
            GenLabel("u", 1).index = 2
        with pytest.raises(AttributeError):
            del GenLabel("u", 1).kind
        assert spec == SuperAlgebraSpec(2, 1, "sl")

    def test_frozen_records_hash_by_value(self):
        assert hash(SuperAlgebraSpec(2, 1, "sl")) == \
            hash(SuperAlgebraSpec(2, 1, "sl"))
        assert len({CheckItem("x", True), CheckItem("x", True)}) == 1

    def test_mutable_records_assign_and_do_not_hash(self):
        cfg = JobConfig("build")
        cfg.m = 3
        assert cfg.m == 3
        report = VerificationReport("t")
        with pytest.raises(TypeError):
            hash(cfg)
        with pytest.raises(TypeError):
            hash(report)


class TestValueSemantics:
    def test_equality_needs_the_same_class(self):
        class Pair(Record):
            m: int
            n: int
            flavor: str

        assert Pair(2, 1, "sl") != SuperAlgebraSpec(2, 1, "sl")
        assert SuperAlgebraSpec(2, 1, "sl") != (2, 1, "sl")
        assert SuperAlgebraSpec(2, 1, "sl") != SuperAlgebraSpec(2, 1, "gl")

    def test_copy_and_pickle_keep_the_value(self):
        spec = SuperAlgebraSpec(2, 1, "sl")
        report = VerificationReport("t")
        report.add_pass("check")
        for record in (spec, report):
            for clone in (copy.copy(record), copy.deepcopy(record),
                          pickle.loads(pickle.dumps(record))):
                assert clone == record and clone is not record
        assert copy.deepcopy(report).items is not report.items

    def test_repr_names_the_fields(self):
        assert repr(CheckItem("x", True)) == \
            "CheckItem(name='x', passed=True, location=None, residual=None)"
        assert repr(TwistSpec(2, (1,))) == \
            "TwistSpec(n=2, nu=(Fraction(1, 1),))"


class TestReplace:
    def test_replace_changes_only_the_named_fields(self):
        spec = SuperAlgebraSpec(2, 1, "sl")
        assert spec.replace(m=3) == SuperAlgebraSpec(3, 1, "sl")
        assert spec == SuperAlgebraSpec(2, 1, "sl")
        cfg = JobConfig("build", m=3)
        assert cfg.replace(n=2) == JobConfig("build", m=3, n=2)

    def test_replace_runs_validation_again(self):
        spec = TwistSpec(2, (1,))
        with pytest.raises(InputError, match="nu = 0"):
            spec.replace(nu=(0,))
        with pytest.raises(InputError, match="sl"):
            SuperAlgebraSpec(2, 1, "sl").replace(n=2)
        assert spec.replace(nu=("1/2",)).nu == (Fraction(1, 2),)
        with pytest.raises(InputError, match="labels"):
            JobConfig("build").replace(labels="1")

    def test_replace_recomputes_the_label_hash(self):
        moved = GenLabel("u", 2).replace(index=3)
        assert moved == GenLabel("u", 3) and hash(moved) == hash(
            GenLabel("u", 3))
        assert GenLabel("u", 2).replace(kind="v") == GenLabel("v", 2)
        with pytest.raises(TypeError):
            GenLabel("u", 2).replace(rank=1)

    def test_cached_properties_are_not_carried_over(self):
        sc = structure_constants(build_fundamental_rep(
            SuperAlgebraSpec(2, 1, "sl")))
        generators = sc.generators
        assert "generators" in vars(sc) and sc.generators is generators
        assert "generators" not in vars(sc.replace())


def test_unknown_config_field_is_rejected_by_name(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    known = {name: getattr(JobConfig("build"), name)
             for name in JobConfig._fields if name not in ("action", "out")}
    known["labels"] = [0]
    cfg.write_text(json.dumps({**known, "frobnicate": 1, "Labels": [0]}))
    assert main(["build", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: unknown config fields rejected: ['Labels', 'frobnicate']\n")
    cfg.write_text(json.dumps(known))
    assert main(["build", "--config", str(cfg)]) == 0
