"""Successive-rejection runs: phase schedule, fair set, elimination, traces.

A stage splits its pull budget into phases of shrinking accuracy
eps = 2^{1-l}.  One driver, ``_run_stage``, runs every phase of every
algorithm: it solves the max-min allocation over the surviving arms, pulls
the rounded counts, re-estimates, then certifies and eliminates in one pass
over the survivors' estimates (``_clauses``), and records the phase.  Its
``rule`` picks the LP families and the elimination clauses:

- ``joint`` (``run_csr``): both families; the arms certified fair at this
  phase are the reference for the reward clause, and a phase with none
  eliminates nothing; a lone survivor is the decision.
- ``fairness`` (stage one of ``run_two_stage``): forced pulls only; arms are
  dropped on the unfairness clauses alone, and the stage stops once at most
  one arm survives.
- ``outcome`` (stage two of ``run_two_stage``): observational pulls only;
  every survivor counts as fair, arms are dropped on the reward clause
  against the survivors, and a lone survivor is the decision.

Runs read a ``PreparedInstance``, built once per model, arm set and cost
cap by ``prepare``, and look nothing up: a run keeps only its generator,
sample pool, variant, tolerance, extra rows and memo entry.  The LP of a
phase depends only on the instance content (the three divergence matrices,
the cost rows, the budget and the extra rows; the cheap-arm cap brings in T)
and on the (survivors, rule) pair.  Seeded runs of one instance keep meeting
the same problems, so every run solves through one memo that lives for the
whole process and drops the least recently used entry first (``lru_get``):

- the outer map, of at most ``_MEMO_INSTANCES`` instances, is keyed on the
  bytes, shape and dtype of the matrices and on the cost rows, budget and
  extra rows, never on object identity, so equal instances prepared apart
  share an entry;
- each instance's map holds at most ``_MEMO_ENTRIES`` solutions, keyed
  (survivors, rule), and rounded counts, keyed (survivors, rule, phase
  length).  Two levels hold the matrix bytes once per instance: in one flat
  map each entry a run adds would keep that run's own copy of them, which
  raised synth-k30's peak RSS by about 7%;
- a memoized ``Allocation`` is shared by every phase record that reuses it,
  which its read-only arrays allow.

A hit returns the very solution a miss would compute, since HiGHS is
deterministic on equal input: seeded runs do not depend on the memo's state.
Sweep workers started by fork inherit it warm.  The memo takes no lock:
threads of one process must not run concurrently through it.

The v1 variant estimates from the phase's own samples, v2 from every sample
collected so far (re-clipped at the current eps), across both stages.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import sampling
from .allocation import Allocation, build_problem, costs_from_arms, round_counts, solve_maxmin
from .divergence import DivergenceSet
from .estimation import EstimateVector, SamplePool, estimate_all
from .model import Arm, CausalModel, array_key, check_fairness_eps, lru_get

__all__ = [
    "MIN_T_CSR",
    "MIN_T_TWO_STAGE",
    "PhaseRecord",
    "RunTrace",
    "phase_schedule",
    "PreparedInstance",
    "prepare",
    "run_csr",
    "run_two_stage",
]

# Smallest budgets with a phase schedule: one for ``run_csr``, one per stage
# for ``run_two_stage``.
MIN_T_CSR = 4
MIN_T_TWO_STAGE = 2 * MIN_T_CSR


@dataclass
class PhaseRecord:
    phase: int
    stage: int
    eps: float
    remaining: tuple[int, ...]
    fair: tuple[int, ...]
    allocation: Allocation
    estimates: EstimateVector
    eliminated: tuple[tuple[int, str], ...]
    samples: int
    cost: float


@dataclass
class RunTrace:
    """Full account of one run: per-phase records plus the decision."""

    phases: list[PhaseRecord]
    decision: int | None
    samples_spent: int
    cost_spent: float

    @property
    def no_fair_arm(self) -> bool:
        return self.decision is None


def phase_schedule(T: int) -> np.ndarray:
    """The int64 pull counts of n = ceil(log2(10 sqrt(T))) phases, tau(l) ~ T/(l logbar).

    logbar is H_n, the n-th harmonic number.  Floor rounding leaves a deficit of at
    most n pulls, which goes to the first phase so the counts sum to T exactly.
    """
    if T < MIN_T_CSR:
        raise ValueError(f"T must be >= {MIN_T_CSR}")
    n = math.ceil(math.log2(10.0 * math.sqrt(T)))
    logbar = float(sum(1.0 / i for i in range(1, n + 1)))
    tau = np.array([int(T // (l * logbar)) for l in range(1, n + 1)], dtype=np.int64)
    tau[0] += T - int(tau.sum())
    return tau


def _best_outcome(estimates: EstimateVector, candidates: Sequence[int]) -> int:
    """Argmax of the outcome estimate over ``candidates``, a missing (NaN) one read
    as -inf; ties, and all missing, go to the first candidate."""
    y = estimates.y[np.asarray(candidates, dtype=np.intp)]
    return candidates[int(np.argmax(np.where(np.isnan(y), -np.inf, y)))]


_UNFAIR_TAGS = ("unfair-high-ssp", "unfair-low-ssp", "unfair-high-sps", "unfair-low-sps")


def _clauses(
    estimates: EstimateVector, l: int, fairness_eps: float, remaining: Sequence[int], rule: str
) -> tuple[tuple[int, ...], tuple[tuple[int, str], ...]]:
    """The phase's fair set among ``remaining`` and one (arm, reason) record per
    clause fired under ``rule``.

    An arm is fair when both directional estimates clear +-fairness_eps by
    3/2^l; under ``outcome`` every survivor counts as fair.  All comparisons are
    strict, so a missing (NaN) estimate neither certifies an arm nor fires a
    clause.  Records come suboptimal first (an outcome estimate trailing the
    best fair one by more than 5/2^l; ``joint`` and ``outcome``), then
    unfairness arm by arm in ``_UNFAIR_TAGS`` order (an estimate past the
    threshold by 3/2^l; ``joint`` and ``fairness``).  Under ``joint`` a phase
    without a fair arm fires nothing.
    """
    arms = fair = np.asarray(remaining, dtype=np.intp)
    if rule != "outcome":
        margin = 3.0 / 2.0**l
        z = np.array((estimates.zeta_ssp[arms], estimates.zeta_sps[arms])).T
        fair = arms[((z + margin < fairness_eps) & (z - margin > -fairness_eps)).all(axis=1)]
        if rule == "joint" and not fair.size:
            return (), ()
    records: list[tuple[int, str]] = []
    if rule != "fairness":
        y_ref = estimates.y[fair]
        y_ref = y_ref[~np.isnan(y_ref)]
        if y_ref.size:
            beaten = y_ref.max() > estimates.y[arms] + 5.0 / 2.0**l
            records = [(k, "suboptimal") for k in arms[beaten].tolist()]
    if rule != "outcome":
        # fired[i, d, h]: arm i, direction d (ssp, sps), high or low; row-major is
        # arm by arm in ``_UNFAIR_TAGS`` order.
        fired = np.array((z - margin > fairness_eps, z + margin < -fairness_eps)).transpose(1, 2, 0)
        rows, tags = np.nonzero(fired.reshape(len(arms), len(_UNFAIR_TAGS)))
        records += [(k, _UNFAIR_TAGS[t]) for k, t in zip(arms[rows].tolist(), tags.tolist())]
    return tuple(fair.tolist()), tuple(records)


def _pull_phase(run: _Run, allocation: Allocation) -> tuple[int, float]:
    """Draw the rounded ``(K, 3)`` counts into the pool in one ``sample_batch`` call;
    returns (samples, cost) spent.

    The cost adds up arm by arm, then in ``REGIMES`` order, one term at a time:
    ``np.sum`` sums pairwise past eight terms, which would move its last bits.
    """
    counts = np.array((allocation.tau_y, allocation.tau_s, allocation.tau_sp)).T
    drawn = counts > 0
    cost = 0.0
    for spent in (run.prepared.costs.T[drawn] * counts[drawn]).tolist():
        cost += spent
    if drawn.any():
        run.pool.add(sampling.sample_batch(run.prepared.tables.laws, counts, run.rng))
    return int(counts.sum()), cost


class PreparedInstance(NamedTuple):
    """What every run of one instance reads (see ``prepare``): ``divergences`` and
    ``costs`` are read-only, ``key`` is the instance's content key in the allocation
    memo, which keeps one copy of its matrix bytes for every run.  A named tuple,
    since a run's set-up builds one per ``run_algorithm`` call."""

    tables: sampling.InstanceTables
    divergences: DivergenceSet
    costs: np.ndarray
    budget: float
    key: tuple


def prepare(model: CausalModel, arms: Sequence[Arm], budget: float,
            divergences: DivergenceSet | None = None) -> PreparedInstance:
    """A snapshot of an instance's memoized tables, divergences and cost rows, with
    the per-sample cost cap ``budget``, for any number of runs.

    The divergences default to the tables' read-only exact matrices; given
    ones are copied read-only and must be K x K for the K arms.  An edit of
    the model, an arm or the given divergences reaches no run of a snapshot
    made before it; prepare again to see it.
    """
    tables = sampling.instance_tables(model, arms)
    given = divergences is not None
    matrices = (divergences.m, divergences.d_ssp, divergences.d_sps) if given else tables.divergences
    keys = tuple(array_key(matrix) for matrix in matrices)
    k, shapes = len(arms), [shape for shape, _, _ in keys]
    if shapes != [(k, k)] * 3:
        raise ValueError(f"divergences must be {k} x {k} for the {k} arms, got {shapes}")
    if given:  # read-only views of the key's bytes: the snapshot copies nothing more
        matrices = [np.ndarray(shape, dtype, data) for shape, dtype, data in keys]
    costs = costs_from_arms(arms)
    costs.flags.writeable = False
    key = (keys, array_key(costs), float(budget))
    return PreparedInstance(tables, DivergenceSet(*matrices), costs, float(budget), key)


# Bounds of the allocation memo: instances, and solutions plus roundings per
# instance.  The most entries one instance was seen to take is 2034, in the
# K=30 sweep of acceptance 8; the benchmark's workloads take at most 663.
_MEMO_INSTANCES = 8
_MEMO_ENTRIES = 4096
_SOLVED: OrderedDict[tuple, OrderedDict[tuple, Allocation]] = OrderedDict()


@dataclass
class _Run:
    """One run's own state over a prepared instance; every phase pulls from
    the instance's cell laws into ``pool``, which under v1 each phase clears first,
    and allocates through ``solved``, the instance's entry of the allocation memo."""

    prepared: PreparedInstance
    fairness_eps: float
    variant: str
    rng: np.random.Generator | None
    extra_constraints: Sequence[tuple[np.ndarray, float]]

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng() if self.rng is None else self.rng
        self.pool = SamplePool(self.prepared.tables)
        extra = tuple((array_key(c), float(ub)) for c, ub in self.extra_constraints)
        self.solved = lru_get(_SOLVED, (self.prepared.key, extra), OrderedDict, _MEMO_INSTANCES)


def _allocate(run: _Run, remaining: tuple[int, ...], rule: str, tau: int | None = None) -> Allocation:
    """The allocation over ``remaining`` (sorted) under ``rule``, rounded to ``tau``
    pulls when given; solved, and rounded, on a miss only."""
    if tau is not None:
        return lru_get(run.solved, (remaining, rule, tau),
                       lambda: round_counts(_allocate(run, remaining, rule), tau), _MEMO_ENTRIES)
    p = run.prepared
    return lru_get(run.solved, (remaining, rule), lambda: solve_maxmin(build_problem(
        p.divergences, p.costs, p.budget, remaining, run.extra_constraints,
        include_outcome=rule != "fairness", include_fairness=rule != "outcome",
    )), _MEMO_ENTRIES)


def _run_stage(
    run: _Run, T: int, remaining: tuple[int, ...], stage: int, rule: str,
    phases: list[PhaseRecord],
) -> tuple[tuple[int, ...], int | None]:
    """One phase schedule of ``T`` pulls over ``remaining``; appends a record per phase.

    Returns the survivors and, when the stage ended at a lone survivor, that
    arm as the decision (None otherwise).  See the module docstring for the
    three rules.
    """
    for l, tau in enumerate(phase_schedule(T), 1):
        eps = 2.0 ** (-(l - 1))
        alloc = _allocate(run, remaining, rule, int(tau))
        if run.variant == "v1":
            run.pool.clear()
        spent, cost = _pull_phase(run, alloc)
        estimates = estimate_all(run.pool, eps, run.prepared.divergences)
        fair, eliminated = _clauses(estimates, l, run.fairness_eps, remaining, rule)
        phases.append(
            PhaseRecord(l, stage, eps, remaining, fair, alloc, estimates, eliminated, spent, cost)
        )
        # A lone survivor fires no clause: it is the decision.
        if rule != "fairness" and len(remaining) == 1:
            return remaining, remaining[0]
        dropped = {k for k, _ in eliminated}
        remaining = tuple(k for k in remaining if k not in dropped)
        if rule == "fairness" and len(remaining) <= 1:
            break
    return remaining, None


def _trace(phases: list[PhaseRecord], decision: int | None) -> RunTrace:
    cost = float(sum(p.cost for p in phases))
    return RunTrace(phases, decision, sum(p.samples for p in phases), cost)


def run_csr(
    prepared: PreparedInstance,
    T: int,
    fairness_eps: float,
    variant: str = "v2",
    rng: np.random.Generator | None = None,
    extra_constraints: Sequence[tuple[np.ndarray, float]] = (),
) -> RunTrace:
    """One joint successive-rejection run over the full budget.

    Without a lone survivor the decision is the best outcome estimate among
    the fair set of the last phase that certified any arm fair.
    """
    if variant not in ("v1", "v2"):
        raise ValueError(f"variant must be 'v1' or 'v2', got {variant!r}")
    check_fairness_eps(fairness_eps)
    run = _Run(prepared, fairness_eps, variant, rng, extra_constraints)
    phases: list[PhaseRecord] = []
    _, decision = _run_stage(run, T, tuple(range(prepared.divergences.n_arms)), 1, "joint", phases)
    if decision is None:
        certified = [p for p in phases if p.fair]
        if certified:
            decision = _best_outcome(certified[-1].estimates, certified[-1].fair)
    return _trace(phases, decision)


def run_two_stage(
    prepared: PreparedInstance,
    T: int,
    fairness_eps: float,
    inner: str = "v2",
    rng: np.random.Generator | None = None,
    extra_constraints: Sequence[tuple[np.ndarray, float]] = (),
) -> RunTrace:
    """Half the budget screens unfair arms, the other half picks the best.

    Stage one allocates forced pulls only and eliminates on the fairness
    clauses alone; an empty survivor set means no fair arm.  Stage two
    allocates observational pulls only over the survivors and eliminates on
    the reward clause alone.  Under v2 both stages share one pool.
    """
    if inner not in ("v1", "v2"):
        raise ValueError(f"inner must be 'v1' or 'v2', got {inner!r}")
    check_fairness_eps(fairness_eps)
    if T < MIN_T_TWO_STAGE:
        raise ValueError(f"T must be >= {MIN_T_TWO_STAGE} so each stage gets a schedule")
    run = _Run(prepared, fairness_eps, inner, rng, extra_constraints)
    phases: list[PhaseRecord] = []
    everyone = tuple(range(prepared.divergences.n_arms))
    survivors, _ = _run_stage(run, T // 2, everyone, 1, "fairness", phases)
    if not survivors:
        return _trace(phases, None)
    survivors, decision = _run_stage(run, T // 2, survivors, 2, "outcome", phases)
    if decision is None:
        decision = _best_outcome(phases[-1].estimates, survivors)
    return _trace(phases, decision)
