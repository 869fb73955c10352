"""Metric definitions, the harness's arithmetic and the result-file schema."""

from __future__ import annotations

import math
import os
import platform
import resource
from typing import Sequence

import numpy
import scipy

# (name, unit) in the order BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_s", "runs/s"),
    ("run_p50_s", "s"),
    ("run_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("divergence.exact_s", "s"),
    ("divergence.exact_calls", "count"),
    ("oracles.enumerate_calls", "count"),
    ("oracles.report_s", "s"),
    ("allocation.solve_s", "s"),
    ("allocation.solve_calls", "count"),
    ("allocation.distinct_problems", "count"),
    ("sampling.batch_s", "s"),
    ("sampling.batch_calls", "count"),
    ("sampling.pulls", "count"),
    ("estimation.estimate_s", "s"),
    ("estimation.estimate_calls", "count"),
    ("estimation.terms", "count"),
    ("bandit.self_s", "s"),
    ("bandit.phases", "count"),
    ("sweep.self_s", "s"),
    ("sweep.cells", "count"),
    ("sweep.pool_efficiency", "ratio"),
    ("trace.overhead_s", "s"),
)
# Spans of layers only some workloads run; their self times go to the result
# file, not to the last line, where they would read a constant 0 elsewhere.
WORKLOAD_LAYERS = ("synth.generate", "netgen.build", "bif.parse")

RESULT_KEYS = ("schema", "workload", "seed", "seconds", "trace", "machine", "operations",
               "check_failures", "metrics", "detail")
OPERATION_KINDS = ("runs", "checks")
MACHINE_KEYS = ("nproc", "python", "numpy", "scipy", "blas_threads", "platform")


def tail_percentile(values: Sequence[float], q: float, beyond: int = 10) -> float | None:
    """Nearest-rank ``q`` quantile, or None when fewer than ``beyond`` samples exceed its rank."""
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n == 0 or n - rank < beyond:
        return None
    return sorted(values)[rank - 1]


def pool_efficiency(run_seconds: float, width: int, wall_seconds: float) -> float:
    """Share of ``width`` processes' wall time spent inside seeded runs."""
    return run_seconds / (width * wall_seconds)


def peak_rss_mb(width: int) -> float:
    """Peak RSS of this process plus ``width`` times the largest finished worker's.

    getrusage reports only the largest child, so for a pooled sweep this is
    an upper bound on the workers' joint peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + width * worker) / 1024.0


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def metric_block(values: dict[str, float], spec: Sequence[tuple[str, str]]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def last_line(correct: bool, operations: dict, metrics: dict) -> dict:
    """The object the benchmark prints last: exactly these four keys."""
    return {
        "correct": correct,
        "attempted": sum(operations[k]["attempted"] for k in OPERATION_KINDS),
        "failed": sum(operations[k]["failed"] for k in OPERATION_KINDS),
        "metrics": metrics,
    }


def validate_result(doc: dict) -> None:
    """Raise ValueError unless ``doc`` follows the result-file schema."""
    if tuple(doc) != RESULT_KEYS:
        raise ValueError(f"result keys {tuple(doc)} != {RESULT_KEYS}")
    if tuple(doc["machine"]) != MACHINE_KEYS:
        raise ValueError(f"machine keys {tuple(doc['machine'])} != {MACHINE_KEYS}")
    for kind in OPERATION_KINDS:
        ops = doc["operations"][kind]
        if set(ops) != {"attempted", "failed"} or not 0 <= ops["failed"] <= ops["attempted"]:
            raise ValueError(f"bad operation counts for {kind}: {ops}")
    spec = PER_LAYER if doc["trace"] else END_TO_END
    if set(doc["metrics"]) != {name for name, _ in spec}:
        raise ValueError(f"metrics {sorted(doc['metrics'])} do not match the trace={doc['trace']} set")
    for name, unit in spec:
        entry = doc["metrics"][name]
        if entry["unit"] != unit or not isinstance(entry["value"], (int, float)):
            raise ValueError(f"metric {name}: {entry}")
