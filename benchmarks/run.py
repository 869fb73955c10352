"""faircb benchmark: one pinned workload, closed loop, checked outputs.

    python3 benchmarks/run.py --workload synth-k30 --seed 0 --seconds 5 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` repeats whole rounds until ``--seconds``
have passed and prints the end-to-end metrics.  A round is three sessions;
a session sets the instance up, runs ``run_sweep`` over the workload's grid
and then a third of the latency loop of ``faircb run`` calls.  ``--trace 1``
does one session untraced and the same session traced, both at width 1,
and prints the per-layer split.  Both write ``benchmarks/out/BENCH_*.json``;
the traced run also writes its spans.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread per process, so a width-2 sweep keeps threads <= nproc.
# Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
if not (SRC_DIR / "faircb" / "__init__.py").is_file():
    sys.exit(f"error: no faircb sources under {SRC_DIR}; run from a source checkout")
sys.path.insert(0, str(SRC_DIR))

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import report  # noqa: E402
from faircb import sweep  # noqa: E402
from faircb.allocation import costs_from_arms  # noqa: E402
from tracing import ROOT_SPAN, Tracer, instrument, layer_totals  # noqa: E402
from workloads import LATENCY_ALGORITHM, WORKLOADS, run_session, session_seed  # noqa: E402

SESSIONS = 3  # set-ups, sweeps and latency-loop thirds per round
TRACE_LATENCY_RUNS = 20


class CheckLog:
    """Counts checks and keeps the problems of the failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"check": name, "problems": problems[:5]})


def _check_setup(workload, setup, log: CheckLog) -> None:
    instance = setup.instance
    if workload.family == "network":
        truth = checks.network_truth(instance)
        log.record("network structure", checks.network_structure_problems(instance))
    else:
        truth = checks.synthetic_truth(instance)
    log.record(f"{workload.family} oracle truth",
               checks.oracle_problems(setup.report, truth, instance.fairness_eps))
    log.record("divergence matrices",
               checks.divergence_problems(setup.divergences, workload.divergence_band))


def _check_trace(workload, log: CheckLog, setup, trace) -> None:
    log.record("phases", checks.phase_problems(
        trace, LATENCY_ALGORITHM, workload.top_budget, costs_from_arms(setup.instance.arms)))


def _check_sweep(workload, session, rerun_row: int, log: CheckLog) -> None:
    setup, curve = session.setup, session.curve
    log.record("sweep grid", checks.grid_problems(
        curve, workload.budgets, workload.runs, setup.report["best_fair"]))
    log.record("sweep seeding", checks.rerun_problems(
        setup.instance, setup.divergences, curve, rerun_row, workload.budgets, session.base_seed,
        costs_from_arms(setup.instance.arms)))


def _runs(sessions) -> dict:
    return {"attempted": sum(s.attempted_runs for s in sessions),
            "failed": sum(s.failed_runs for s in sessions)}


def run_round(workload, build_input, seed: int, index: int, log: CheckLog) -> list:
    """Three sessions, each a set-up, a sweep and a third of the latency loop.

    Spreading every kind of work over the round samples the host's speed
    over the whole round instead of one stretch of it.
    """
    n = workload.latency_runs
    sessions = []
    for k in range(SESSIONS):
        number = index * SESSIONS + k
        session = run_session(
            workload, build_input, session_seed(seed, number),
            n * (k + 1) // SESSIONS - n * k // SESSIONS, workload.width,
            inspect=lambda setup, trace: _check_trace(workload, log, setup, trace),
        )
        _check_setup(workload, session.setup, log)
        _check_sweep(workload, session, (seed + number) % len(session.curve.rows), log)
        sessions.append(session)
    decisions = [d for s in sessions for d in s.decisions]
    log.record("error ceiling",
               checks.error_ceiling_problems(decisions, sessions[0].setup.report["best_fair"]))
    return sessions


def untraced_run(workload, build_input, seed: int, seconds: float, log: CheckLog):
    """Whole rounds until ``seconds`` have passed; the end-to-end metrics."""
    rounds, elapsed = [], 0.0
    while not rounds or elapsed < seconds:
        start = time.perf_counter()
        rounds.append(run_round(workload, build_input, seed, len(rounds), log))
        elapsed += time.perf_counter() - start
    sessions = [s for rd in rounds for s in rd]
    latency = [t for s in sessions for t in s.latency_s]
    values = {
        "setup_s": statistics.median(s.setup.seconds for s in sessions),
        "runs_per_s": sum(sum(r.runs for r in s.curve.rows) for s in sessions)
        / sum(s.sweep_s for s in sessions),
        "run_p50_s": statistics.median(latency),
        "run_p90_s": report.tail_percentile(latency, 0.9),
        "peak_rss_mb": report.peak_rss_mb(workload.width),
    }
    truth = sessions[0].setup.report["best_fair"]
    detail = {
        "rounds": len(rounds),
        "elapsed_s": elapsed,
        "setup_samples_s": [s.setup.seconds for s in sessions],
        "sweep_s": [s.sweep_s for s in sessions],
        "latency_samples": len(latency),
        "top_budget_misidentified": sum(d != truth for s in sessions for d in s.decisions),
    }
    return _runs(sessions), report.metric_block(values, report.END_TO_END), detail, None


def traced_run(workload, build_input, seed: int, log: CheckLog):
    """One session untraced, the same session traced, both at width 1; the layer split."""
    base_seed = session_seed(seed, 0)
    kept = []
    start = time.perf_counter()
    ref = run_session(workload, build_input, base_seed, TRACE_LATENCY_RUNS, 1,
                      inspect=lambda setup, trace: kept.append(trace))
    untraced_s = time.perf_counter() - start
    _check_setup(workload, ref.setup, log)
    _check_sweep(workload, ref, seed % len(ref.curve.rows), log)
    for trace in kept:
        _check_trace(workload, log, ref.setup, trace)
    log.record("error ceiling",
               checks.error_ceiling_problems(ref.decisions, ref.setup.report["best_fair"]))

    tracer = Tracer()
    with instrument(tracer):
        traced = run_session(workload, build_input, base_seed, TRACE_LATENCY_RUNS, 1)
    log.record("traced pass agrees", checks.same_outcomes(ref.curve, traced.curve) + (
        [] if ref.decisions == traced.decisions else ["latency decisions differ between passes"]))
    runs = _runs([ref, traced])

    # Pool efficiency comes from an untraced sweep at the workload's own width.
    pooled, pooled_s = ref.curve, ref.sweep_s
    if workload.width > 1:
        start = time.perf_counter()
        pooled = sweep.run_sweep(ref.setup.instance, workload.budgets, workload.runs,
                                 sweep.ALGORITHMS, base_seed, workload.width)
        pooled_s = time.perf_counter() - start
        log.record("pooled sweep agrees", checks.same_outcomes(ref.curve, pooled))
        runs["attempted"] += sum(r.runs for r in pooled.rows)
        runs["failed"] += sum(r.failures for r in pooled.rows)

    totals = layer_totals(tracer.spans)
    by_id = {sp.id: sp for sp in tracer.spans}
    root = next(sp for sp in tracer.spans if sp.name == ROOT_SPAN)
    traced_s = root.end - root.start

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    values = {
        "divergence.exact_s": self_s("divergence.exact"),
        "divergence.exact_calls": calls("divergence.exact"),
        "oracles.enumerate_calls": tracer.counts["oracles.enumerate_calls"],
        "oracles.report_s": self_s("oracles.report"),
        "allocation.solve_s": self_s("allocation.solve"),
        "allocation.solve_calls": calls("allocation.solve"),
        "allocation.distinct_problems": len(tracer.problems),
        "sampling.batch_s": self_s("sampling.batch"),
        "sampling.batch_calls": calls("sampling.batch"),
        "sampling.pulls": tracer.counts["sampling.pulls"],
        "estimation.estimate_s": self_s("estimation.estimate"),
        "estimation.estimate_calls": calls("estimation.estimate"),
        "estimation.terms": tracer.counts["estimation.terms"],
        "bandit.self_s": self_s("bandit.run"),
        "bandit.phases": tracer.counts["bandit.phases"],
        "sweep.self_s": self_s("sweep.run"),
        "sweep.cells": sum(
            1 for sp in tracer.spans
            if sp.name == "bandit.run" and by_id[sp.parent].name == "sweep.run"
        ),
        "sweep.pool_efficiency": report.pool_efficiency(
            sum(r.wall_time_s for r in pooled.rows), workload.width, pooled_s),
        "trace.overhead_s": traced_s - untraced_s,
    }
    detail = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "unattributed_s": self_s(ROOT_SPAN),
        "attributed_share": 1.0 - self_s(ROOT_SPAN) / traced_s,
        "layers": totals,
        "workload_layers": {f"{name}_s": self_s(name) for name in report.WORKLOAD_LAYERS},
    }
    return runs, report.metric_block(values, report.PER_LAYER), detail, tracer


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    log = CheckLog()
    build_input = workload.prepare()
    if args.trace:
        runs, metrics, detail, tracer = traced_run(workload, build_input, args.seed, log)
    else:
        runs, metrics, detail, tracer = untraced_run(
            workload, build_input, args.seed, args.seconds, log)

    operations = {"runs": runs, "checks": {"attempted": log.attempted, "failed": len(log.failures)}}
    doc = {
        "schema": 1,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": report.machine(),
        "operations": operations,
        "check_failures": log.failures,
        "metrics": metrics,
        "detail": detail,
    }
    report.validate_result(doc)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    (OUT_DIR / f"BENCH_{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"SPANS_{stem}.jsonl", "w") as fh:
            for record in tracer.span_records():
                fh.write(json.dumps(record) + "\n")

    for failure in log.failures:
        print(f"check failed: {failure['check']}: {failure['problems']}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(report.last_line(not log.failures, operations, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
