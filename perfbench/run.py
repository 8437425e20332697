"""superkac benchmark: seeded workloads of CLI jobs, timed end to end.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each job
of one pass untraced and then under spans and reports the per-layer
metrics.  The last line of stdout is the result as JSON.  ``--workload
all`` runs each workload in its own process, so memory peaks do not carry
over, and prints every metric with its unit.  Full results, spans and job
outputs go to .perfbench/ at the root of the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree.  git
    looks for a repository at the checkout's root and no higher."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def load_average() -> str:
    return " ".join((_read(Path("/proc/loadavg")) or "?").split()[:3])


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read(Path("/proc/cpuinfo")) or "").splitlines()
                if line.startswith("model name")), platform.processor())
    return {"commit": commit(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "load_start": load_average()}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.perf_counter()
    record = machine()
    try:
        import harness
        from workloads import WORKLOADS
        result = harness.run_workload(
            WORKLOADS[workload], seed, seconds, trace,
            OUT / "work" / f"{workload}-{seed}-{int(trace)}", started)
    except ImportError as err:
        print(f"error: cannot import superkac from src/: {err}",
              file=sys.stderr)
        return 2
    record["load_end"] = load_average()
    units = harness.PER_LAYER if trace else harness.END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    failures = [{"job": o.job.rung.name, "config": repr(o.job.config),
                 "error": o.error}
                for o in result["outcomes"] if o.error is not None]
    full = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "machine": record,
            "setup_s": result["setup_s"], "passes": result.get("passes", 1),
            "attempted": result["attempted"], "failed": result["failed"],
            "failed_ratio": result["failed"] / result["attempted"],
            "per_verb": result["per_verb"], "metrics": metrics,
            "failures": failures,
            "jobs": [{"job": o.job.rung.name, "wall_s": o.wall_s,
                      "cpu_s": o.cpu_s, "scaled_s": o.scaled_s,
                      "error": o.error}
                     for o in result["outcomes"]]}
    tag = f"{workload}-{seed}-{int(trace)}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(full, indent=1))
    print(f"machine: {json.dumps(record)}")
    print(f"{workload}: {result['attempted']} jobs attempted, "
          f"{result['failed']} failed, failed_ratio "
          f"{full['failed_ratio']:.4f}, {full['passes']} pass(es)")
    for verb, row in result["per_verb"].items():
        print(f"  {verb}_s.p50 {row['p50_s']:.4f} s wall, "
              f"{row['scaled_p50_s']:.4f} s at the reference speed "
              f"({row['samples']} samples)")
    for failure in failures:
        print(f"  FAILED {failure['job']}: {failure['error']}")
    if trace:
        tracer = result["tracer"]
        (OUT / f"spans-{tag}.json").write_text(
            json.dumps(tracer.to_jsonable()))
        for name, row in result["by_span"].items():
            print(f"  span {name}: {row['calls']} calls, "
                  f"self {row['self_s']:.4f} s")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then every metric by name."""
    from workloads import WORKLOADS
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        status = status or int(not result["correct"])
        print(f"== {workload}")
        for line in lines[:-1]:
            if not line.startswith("  span "):
                print(line)
        for name, metric in result["metrics"].items():
            print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
