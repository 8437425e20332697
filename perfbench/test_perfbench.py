"""The benchmark's own tests, on a ladder of one tiny job per verb.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import harness
from tracing import COUNT
from workloads import PROBE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request):
    return ROOT / ".perfbench" / "test" / request.node.name


def _run(workdir, trace):
    return harness.run_workload(PROBE, 7, 0, trace, workdir,
                                time.perf_counter())


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_ladder_reports_every_metric(workdir, trace):
    result = _run(workdir, trace)
    assert result["failed"] == 0, [o.error for o in result["outcomes"]]
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(expected)
    # one pass plus a determinism rerun of every verb; traced runs add the
    # probe and the traced pass
    verbs = len({rung.verb for rung in PROBE})
    passes = 3 if trace else 1
    assert result["attempted"] == passes * len(PROBE) + verbs
    if not trace:
        assert all(value > 0 for value in result["metrics"].values())


def test_self_times_add_up_to_each_traced_job(workdir):
    result = _run(workdir, True)
    tracer = result["tracer"]
    own = tracer.self_by_job()
    roots = {}
    for name, start, end, parent, job in tracer.spans:
        if parent < 0:
            assert name == "cli.run"
            roots[job] = roots.get(job, 0.0) + end - start
    # size counting sits in spans of its own, under the caller's span
    counting = [span for span in tracer.spans if span[0] == COUNT]
    assert counting and all(span[3] >= 0 for span in counting)
    assert set(own) == set(roots)
    for job, total in own.items():
        assert total == pytest.approx(roots[job], rel=1e-9, abs=1e-9)
    gaps = [o.wall_s - own[o.job.key] for o in result["traced"]]
    assert len(gaps) == len(own)
    assert all(gap >= 0 for gap in gaps)
    assert result["metrics"]["trace.unaccounted_s"] == pytest.approx(sum(gaps))


def test_forced_failure_is_counted_not_dropped(workdir, monkeypatch):
    real_setup = harness.setup

    def setup_with_failing_checker(ladder, seed):
        sk, jobs, setup_s = real_setup(ladder, seed)
        failing = sk.cli.VerificationReport("forced")
        failing.add_fail("forced failure", "benchmark-side wrapper")
        monkeypatch.setattr(sk.cli, "check_super_relations",
                            lambda *args, **kwargs: failing)
        return sk, jobs, setup_s

    monkeypatch.setattr(harness, "setup", setup_with_failing_checker)
    result = _run(workdir, False)
    checked = [o for o in result["outcomes"]
               if o.job.verb in ("verify", "replicate", "twist")]
    assert checked and all(o.error == "exit code 1" for o in checked)
    assert result["failed"] == len(checked)
    assert result["attempted"] == len(result["outcomes"])
    assert result["metrics"]["jobs_per_s"] > 0
