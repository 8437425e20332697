"""Spans around the public functions of each superkac module.

The tracer lives entirely in the benchmark: ``instrument`` rebinds every
public module-level function of the layers below (and
``PolyMatrix.__matmul__``) to a wrapper that records a span, then restores
the originals.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the time its child spans cover.  Sizes are
counted after a call returns, inside a ``trace.count`` span under the
caller's span.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from operator import itemgetter

LAYERS = ("exact", "algebra", "evenrep", "kacmod", "matryoshka",
          "heisenberg", "jsonio", "cli")

# Per-scalar helpers run once per matrix entry (600k calls in one job of
# each verb); a span on each would cost more than the work it times.
UNTRACED = {"exact.rat", "exact.rat_str", "jsonio.poly_to_json",
            "jsonio.poly_from_json"}

MATMUL = "exact.PolyMatrix.__matmul__"
COUNT = "trace.count"


def _matmul_sizes(args, result):
    left, right = args["self"], args["other"]
    row_nnz = Counter(map(itemgetter(0), right.entries))
    col_nnz = Counter(map(itemgetter(1), left.entries))
    return {"entry_products": sum(count * row_nnz[k]
                                  for k, count in col_nnz.items()),
            "out_nnz": len(result.entries)}


def _relation_sizes(args, result):
    pairs = len(args["sc"].basis) ** 2
    dim = next(iter(args["matrices"].values())).rows
    return {"pairs": pairs, "pair_dim": pairs * dim}


# Sizes recorded where the work happens, from the call's arguments (bound
# by parameter name) and its result.
COUNTERS = {
    "evenrep.build_even_irrep": lambda args, result: {"dim_L": result.dim},
    "algebra.check_super_relations": _relation_sizes,
    "kacmod.induce": lambda args, result: {
        "dim_K": result.dim,
        "nnz": sum(len(m.entries) for m in result.matrices.values())},
    "kacmod.singular_vectors":
        lambda args, result: {"found": len(result.vectors)},
    "matryoshka.replicate": lambda args, result: {"dim": result.dim},
    "jsonio.export_json":
        lambda args, result: {"bytes": os.path.getsize(args["path"])},
    "exact.rational_linear_solve":
        lambda args, result: {"cells": args["m"].rows * args["m"].cols},
}


class Tracer:
    """Collects spans [name, start, end, parent index, job id]."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(int))
        self.job = None
        self._stack = []

    def start_job(self, job_id):
        """Spans recorded from now on belong to this job (none while it is
        None) and have no parent from an earlier job, even one stopped by
        the job cap."""
        self.job = job_id
        self._stack.clear()

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if count else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                # Counting is the tracer's own work.  It gets a span of its
                # own under the caller, so no layer's self time includes it.
                mark = [COUNT, clock(), 0.0, stack[-1] if stack else -1,
                        tracer.job]
                spans.append(mark)
                given = signature.bind(*args, **kwargs).arguments
                acc = tracer.counters[name]
                for key, value in count(given, result).items():
                    acc[key] += value
                mark[2] = clock()
            return result

        return traced

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def totals(self) -> dict:
        """name -> {"calls": n, "self_s": s}."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            out[span[0]]["calls"] += 1
            out[span[0]]["self_s"] += own
        return out

    def self_by_job(self) -> dict:
        out = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[span[4]] += own
        return out

    def to_jsonable(self) -> list:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "job": job}
                for name, start, end, parent, job in self.spans]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public functions of every layer, and restore them on exit."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"superkac.{layer}"]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                wrappers[obj] = tracer.wrap(name, obj, COUNTERS.get(name))
    # Modules import each other's functions by name, so every binding of a
    # wrapped function in every superkac namespace is replaced.
    patches = []
    for modname, module in list(sys.modules.items()):
        if modname == "superkac" or modname.startswith("superkac."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((module, attr, obj))
    poly_matrix = sys.modules["superkac.exact"].PolyMatrix
    matmul = poly_matrix.__matmul__
    wrappers[matmul] = tracer.wrap(MATMUL, matmul, _matmul_sizes)
    patches.append((poly_matrix, "__matmul__", matmul))
    for owner, attr, original in patches:
        setattr(owner, attr, wrappers[original])
    try:
        yield tracer
    finally:
        for owner, attr, original in patches:
            setattr(owner, attr, original)
