"""In-memory spans around calls into faircb's public functions.

The traced pass swaps selected module attributes of ``faircb`` for wrappers
that open a span (name, start, end, parent) and bump counters, and restores
them afterwards.  Nothing inside ``faircb`` changes: the wrappers live here
and only see the arguments and results of public functions.  Spans stay in
memory and are written out by the caller when the run ends.

Span names are ``<module>.<call>``; the module prefix is the layer a span's
self time is charged to.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

from faircb import bandit, bif, divergence, netgen, oracles, sampling, sweep, synth
from faircb.model import Regime

ROOT_SPAN = "bench.pass"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Nested spans of one thread plus named counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.problems: set[tuple] = set()
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0, parent)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def enclosing(self, name: str) -> int | None:
        """Id of the innermost open span called ``name``, if any."""
        for sp in reversed(self._stack):
            if sp.name == name:
                return sp.id
        return None

    def span_records(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span duration minus the durations of its direct children, per span id."""
    covered: dict[int, float] = {}
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] = covered.get(sp.parent, 0.0) + (sp.end - sp.start)
    return {sp.id: (sp.end - sp.start) - covered.get(sp.id, 0.0) for sp in spans}


def layer_totals(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Self seconds and call count per span name."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sp in spans:
        entry = out.setdefault(sp.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own[sp.id]
        entry["calls"] += 1
    return out


def _wrap(tracer: Tracer, name: str, fn: Callable, note: Callable | None = None) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
            if note is not None:
                note(tracer, args, result)
            return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(tracer: Tracer, counter: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.counts[counter] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _note_pulls(tracer: Tracer, args, result) -> None:
    tracer.counts["sampling.pulls"] += int(result.n)


def _note_terms(tracer: Tracer, args, result) -> None:
    pool = args[0]
    pooled = sum(int(pool.counts(regime).sum()) for regime in Regime)
    tracer.counts["estimation.terms"] += pool.n_arms * pooled


def _note_problem(tracer: Tracer, args, result) -> None:
    problem = args[0]
    sweep_id = tracer.enclosing("sweep.run")
    if sweep_id is None:
        return
    key = (
        problem.active,
        problem.include_outcome,
        problem.include_fairness,
        tuple(ub for _, ub in problem.extra_constraints),
    )
    tracer.problems.add((sweep_id, key))


def _note_phases(tracer: Tracer, args, result) -> None:
    tracer.counts["bandit.phases"] += len(result.phases)


# (module, attribute, span name, note) for every traced call site.  A function
# imported by name into another module is patched where it is looked up,
# which is the calling module.
_PATCHES = (
    (synth, "generate_synthetic", "synth.generate", None),
    (bif, "parse_bif", "bif.parse", None),
    (netgen, "build_network_experiment", "netgen.build", None),
    (oracles, "oracle_report", "oracles.report", None),
    (synth, "oracle_report", "oracles.report", None),
    (sweep, "oracle_report", "oracles.report", None),
    (sweep, "run_sweep", "sweep.run", None),
    (sweep, "run_csr", "bandit.run", _note_phases),
    (sweep, "run_two_stage", "bandit.run", _note_phases),
    (bandit, "solve_maxmin", "allocation.solve", _note_problem),
    (sampling, "sample_batch", "sampling.batch", _note_pulls),
    (bandit, "estimate_all", "estimation.estimate", _note_terms),
)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route faircb's public calls through ``tracer`` until the block exits."""
    saved: list[tuple[object, str, object]] = []

    def swap(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for module, attr, name, note in _PATCHES:
            swap(module, attr, _wrap(tracer, name, getattr(module, attr), note))
        for module in (oracles, divergence):
            swap(module, "enumerate_joint",
                 _counted(tracer, "oracles.enumerate_calls", module.enumerate_joint))
        exact = _wrap(tracer, "divergence.exact", divergence.DivergenceSet.exact)
        swap(divergence.DivergenceSet, "exact", classmethod(lambda cls, *a, **k: exact(*a, **k)))
        with tracer.span(ROOT_SPAN):
            yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
