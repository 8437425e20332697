"""Runs one workload's jobs through ``superkac.cli.run`` and checks them.

One closed-loop client: a single thread runs the jobs one after another,
each starting when the previous one has finished and its outputs have been
checked.  The program's stdout goes to an in-memory sink that the checks
read.  A job fails if it raises, exits non-zero, exceeds the per-job cap or
fails an output check; failed jobs are counted, never dropped.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import re
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracing import COUNT, MATMUL, Tracer, instrument
from workloads import PROBE, make_jobs

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_REPEATS = 15
# CPU seconds of one reference_work() on the host of BASELINE.md when it
# is quiet.  Times are reported at this reference speed; see scaled().
REF_SECONDS = 0.025
JOB_CAP_S = 60.0
RUN_DEADLINE_S = 165.0   # every job of a run starts and ends before this

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.geomean": "s",
    "peak_rss_mb": "MB",
}

SELF_TIMED = (
    "evenrep.build_even_irrep",
    "algebra.check_super_relations", "algebra.structure_constants",
    "algebra.super_jacobi_report", "algebra.grading_report",
    "kacmod.induce", "kacmod.kac_typicality", "kacmod.singular_vectors",
    "matryoshka.odd_derivative", "matryoshka.replicate", "matryoshka.twist",
    "matryoshka.jordan_minpoly_profile",
    "heisenberg.build_heisenberg", "heisenberg.rho_family",
    "heisenberg.phi_map", "heisenberg.affine_in_t_report",
    "heisenberg.check_phi_representation",
    "heisenberg.mixed_derivative_report", "heisenberg.compare_with_KH",
    "jsonio.module_to_json", "jsonio.export_json",
    MATMUL, "exact.rational_linear_solve",
    "cli.run",
)

# (span name, counter) pairs summed over the traced pass, with their units.
SIZES = (
    ("evenrep.build_even_irrep", "dim_L", "count"),
    ("algebra.check_super_relations", "pairs", "count"),
    ("algebra.check_super_relations", "pair_dim", "count"),
    ("kacmod.induce", "dim_K", "count"),
    ("kacmod.induce", "nnz", "count"),
    ("kacmod.singular_vectors", "found", "count"),
    ("matryoshka.replicate", "dim", "count"),
    ("jsonio.export_json", "bytes", "bytes"),
    (MATMUL, "entry_products", "count"),
    ("exact.rational_linear_solve", "cells", "count"),
)

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.{key}": unit for name, key, unit in SIZES},
    f"{MATMUL}.calls": "count",
    f"{MATMUL}.out_nnz_per_product": "ratio",
    "exact.rational_linear_solve.calls": "count",
    "trace.overhead_s": "s",
    "trace.count_s": "s",
    "trace.unaccounted_s": "s",
}


def load_superkac() -> SimpleNamespace:
    """Import superkac afresh from the checkout's own sources.

    Bytecode is cached, as on a user's machine, even where the environment
    sets PYTHONDONTWRITEBYTECODE: otherwise every set-up would compile the
    sources, and set-up time would depend on the environment."""
    sys.dont_write_bytecode = False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "superkac" or n.startswith("superkac.")]:
        del sys.modules[name]
    cli = importlib.import_module("superkac.cli")
    if Path(cli.__file__).resolve().parent != SRC / "superkac":
        raise ImportError(f"superkac imported from {cli.__file__}, "
                          f"not from {SRC}")
    return SimpleNamespace(cli=cli, algebra=sys.modules["superkac.algebra"],
                           evenrep=sys.modules["superkac.evenrep"],
                           jsonio=sys.modules["superkac.jsonio"])


def reference_work() -> int:
    """A fixed loop of exact arithmetic, in the style of the program's own
    (Fraction products summed into a dict).  It is part of the benchmark,
    so no change to the program moves it."""
    acc = {}
    for i in range(1, 6001):
        key = (i % 31, i % 17)
        acc[key] = acc.get(key, 0) + Fraction(i % 97 + 1, i % 13 + 2) \
            * Fraction(7, i % 11 + 1)
    return len(acc)


def reference_s() -> float:
    """CPU time of one reference_work(), with the collector off so that the
    objects the process holds do not enter it."""
    gc.disable()
    try:
        start = time.process_time()
        reference_work()
        return time.process_time() - start
    finally:
        gc.enable()


def scaled(cpu_s: float, before: float, after: float) -> float:
    """CPU time at the reference speed: the host's speed drifts by up to
    half over tens of seconds, and the reference loop, timed just before
    and just after, slows with it."""
    return cpu_s * 2 * REF_SECONDS / (before + after)


def setup(ladder, seed: int):
    """Import superkac and generate the jobs, SETUP_REPEATS times, each
    after a full collection so that no set-up pays for an earlier one's
    garbage.

    Returns the last import, its jobs and the median set-up time, as CPU
    time at the reference speed.
    """
    times = []
    refs = [reference_s()]
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.process_time()
        sk = load_superkac()
        jobs = make_jobs(sk, ladder, seed)
        cpu = time.process_time() - start
        refs.append(reference_s())
        times.append(scaled(cpu, *refs[-2:]))
    return sk, jobs, statistics.median(times)


class JobCapExceeded(Exception):
    pass


@contextlib.contextmanager
def capped(seconds: float):
    if seconds <= 0:
        raise JobCapExceeded("no time left in the run for this job")

    def on_alarm(signum, frame):
        raise JobCapExceeded(f"job exceeded its {seconds:.1f} s cap")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    job: object
    wall_s: float
    cpu_s: float               # CPU time of the process over the job
    scaled_s: float            # cpu_s at the reference speed
    error: str | None          # None when the job and its checks passed
    fingerprint: str           # digest of stdout, report and artifact bytes


def check_outputs(sk, job, rc, stdout: str, report, artifact) -> str | None:
    """The first failed output check of a finished job, or None."""
    if rc != 0:
        return f"exit code {rc}"
    if report is not None:
        data = json.loads(report)
        failed = [c["name"] for c in data["checks"] if not c["passed"]]
        if not data["checks"] or failed or not data["ok"]:
            return f"report checks failed: {failed or 'no checks'}"
    if job.verb == "build":
        found = re.search(r"Kac module of dimension (\d+)", stdout)
        if not found or int(found.group(1)) != job.dim:
            return f"dim K is not 2^P * weyl_dimension = {job.dim}"
    elif job.verb == "export":
        data = json.loads(artifact)
        mats = sk.jsonio.module_matrices_from_json(data)
        shapes = {(m.rows, m.cols) for m in mats.values()}
        if data["dim"] != job.dim or shapes != {(job.dim, job.dim)}:
            return f"artifact dim {data['dim']} / shapes {sorted(shapes)} " \
                   f"differ from {job.dim}"
    elif job.verb == "typicality":
        if "root multisets coincide: True" not in stdout:
            return "root multisets differ"
        verdict = re.search(r"at b = \S+: (\w+)", stdout)
        count = re.search(r"singular vectors at layers .* \((\d+) total\)",
                          stdout)
        if not verdict or (verdict.group(1) == "atypical") != job.atypical:
            return f"verdict differs from the closed form: atypical " \
                   f"expected {job.atypical}"
        # A Kac module is simple exactly at typical b, and then its highest
        # weight vector is its only singular vector.
        if not count or (int(count.group(1)) > 1) != job.atypical:
            return "singular vector count does not match the verdict"
    return None


def run_job(sk, job, workdir: Path, cap_s: float,
            tracer: Tracer | None = None) -> Outcome:
    out = workdir / f"{job.key}.artifact.json" \
        if job.verb == "export" else None
    report = workdir / f"{job.key}.report.json" \
        if job.verb not in ("build", "export") else None
    for path in (out, report):
        if path is not None:
            path.unlink(missing_ok=True)
    cfg = sk.cli.JobConfig(action=job.verb, out=out and str(out),
                           report=report and str(report), **job.config)
    sink = io.StringIO()
    rc, error = None, None
    ref_before = reference_s()
    if tracer is not None:
        tracer.start_job(job.key)
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with capped(cap_s), contextlib.redirect_stdout(sink):
            rc = sk.cli.run(cfg)
    except Exception as exc:  # a raising job is a failed job, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    if tracer is not None:
        tracer.start_job(None)
    ref_after = reference_s()
    texts = [path.read_bytes() if path is not None and path.exists()
             else None for path in (report, out)]
    if error is None:
        try:
            error = check_outputs(sk, job, rc, sink.getvalue(), *texts)
        except (OSError, TypeError, ValueError, KeyError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(sink.getvalue().encode())
    for text in texts:
        digest.update(text or b"-")
    return Outcome(job, wall, cpu, scaled(cpu, ref_before, ref_after), error,
                   digest.hexdigest())


class Run:
    """One run of a workload: jobs, checks, and the run's hard deadline."""

    def __init__(self, sk, jobs, workdir: Path, started: float):
        self.sk = sk
        self.jobs = jobs
        self.workdir = workdir
        self.deadline = started + RUN_DEADLINE_S
        workdir.mkdir(parents=True, exist_ok=True)

    def one(self, job, tracer=None) -> Outcome:
        gc.collect()
        cap = min(JOB_CAP_S, self.deadline - time.perf_counter())
        return run_job(self.sk, job, self.workdir, cap, tracer)

    def one_pass(self, jobs=None, tracer=None) -> list:
        return [self.one(job, tracer) for job in (jobs or self.jobs)]

    def passes(self, seconds: float) -> list:
        """Whole passes over the jobs, while the next one fits in seconds."""
        done = []
        started = time.perf_counter()
        while True:
            begin = time.perf_counter()
            done.append(self.one_pass())
            now = time.perf_counter()
            if now - started + (now - begin) > seconds or \
                    now + (now - begin) > self.deadline:
                return done

    def repeats(self, passes: list) -> list:
        """Determinism: rerun the fastest job of each verb of the first pass
        and require the same canonical output; later passes are compared
        with the first as well.  A mismatch fails the job."""
        first = passes[0]
        for later in passes[1:]:
            for a, b in zip(first, later):
                if b.error is None and b.fingerprint != a.fingerprint:
                    b.error = "output differs from the first pass"
        fastest = {}
        for outcome in first:
            best = fastest.get(outcome.job.verb)
            if best is None or outcome.wall_s < best.wall_s:
                fastest[outcome.job.verb] = outcome
        again = []
        for verb, before in sorted(fastest.items()):
            outcome = self.one(before.job)
            if outcome.error is None and outcome.fingerprint != before.fingerprint:
                outcome.error = "output differs when the job is run again"
            again.append(outcome)
        return again


def per_verb(outcomes) -> dict:
    by_verb = {}
    for o in outcomes:
        by_verb.setdefault(o.job.verb, []).append(o)
    return {verb: {"p50_s": statistics.median(o.wall_s for o in done),
                   "scaled_p50_s": statistics.median(o.scaled_s
                                                     for o in done),
                   "samples": len(done)}
            for verb, done in sorted(by_verb.items())}


def untraced(run: Run, seconds: float, setup_s: float) -> dict:
    passes = run.passes(seconds)
    timed = [o for p in passes for o in p]
    extra = run.repeats(passes)
    times = [o.scaled_s for o in timed]
    completed = sum(o.error is None for o in timed)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": completed / sum(times),
        "job_s.geomean": statistics.geometric_mean(times),
        "peak_rss_mb": peak_kb / 1024,
    }
    return {"metrics": metrics, "outcomes": timed + extra,
            "passes": len(passes), "per_verb": per_verb(timed)}


def traced(run: Run, seed: int) -> dict:
    """The probe jobs under spans, then each job of one pass twice in a row:
    untraced, then under spans.

    The overhead is the pass's untraced wall time scaled by the median over
    these pairs of traced / untraced - 1, both at the reference speed.
    Pairing keeps drift of the host between passes out of it, the scaling
    most of the drift within a pair, and the median keeps one job that the
    host slowed in either of its runs from setting it."""
    probe = make_jobs(run.sk, PROBE, seed, prefix="probe")
    tracer = Tracer()
    with instrument(tracer):
        probed = run.one_pass(probe, tracer)
    plain, spanned = [], []
    for job in run.jobs:
        plain.append(run.one(job))
        with instrument(tracer):
            spanned.append(run.one(job, tracer))
    extra = run.repeats([plain, spanned])
    own = tracer.self_by_job()
    metrics = {}
    totals = tracer.totals()
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = totals[name]["self_s"]
    for name, key, _ in SIZES:
        metrics[f"{name}.{key}"] = tracer.counters[name][key]
    products = tracer.counters[MATMUL]["entry_products"]
    metrics[f"{MATMUL}.calls"] = totals[MATMUL]["calls"]
    metrics[f"{MATMUL}.out_nnz_per_product"] = \
        tracer.counters[MATMUL]["out_nnz"] / products if products else 0.0
    metrics["exact.rational_linear_solve.calls"] = \
        totals["exact.rational_linear_solve"]["calls"]
    ratio = statistics.median(b.scaled_s / a.scaled_s
                              for a, b in zip(plain, spanned))
    metrics["trace.overhead_s"] = (ratio - 1) * sum(o.wall_s for o in plain)
    metrics["trace.count_s"] = totals[COUNT]["self_s"]
    metrics["trace.unaccounted_s"] = sum(o.wall_s - own[o.job.key]
                                         for o in probed + spanned)
    return {"metrics": metrics, "outcomes": plain + probed + spanned + extra,
            "traced": probed + spanned, "per_verb": per_verb(plain),
            "tracer": tracer,
            "by_span": dict(sorted(totals.items(),
                                   key=lambda kv: -kv[1]["self_s"]))}


def run_workload(ladder, seed: int, seconds: float, trace: bool,
                 workdir: Path, started: float) -> dict:
    sk, jobs, setup_s = setup(ladder, seed)
    run = Run(sk, jobs, workdir, started)
    result = traced(run, seed) if trace else untraced(run, seconds, setup_s)
    outcomes = result["outcomes"]
    result["attempted"] = len(outcomes)
    result["failed"] = sum(o.error is not None for o in outcomes)
    result["setup_s"] = setup_s
    return result
