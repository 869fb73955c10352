"""Successive-rejection runs: phase schedule, fair set, elimination, traces.

A stage splits its pull budget into phases of shrinking accuracy
eps = 2^{1-l}.  One driver, ``_run_stage``, runs every phase of every
algorithm: it solves the max-min allocation over the surviving arms, pulls
the rounded counts, re-estimates, records the phase and eliminates.  Its
``rule`` picks the LP families and the elimination clauses:

- ``joint`` (``run_csr``): both families; the arms certified fair at this
  phase are the reference for ``eliminate``; a lone survivor is the decision.
- ``fairness`` (stage one of ``run_two_stage``): forced pulls only; arms are
  dropped on the unfairness clauses alone, and the stage stops once at most
  one arm survives.
- ``outcome`` (stage two of ``run_two_stage``): observational pulls only;
  every survivor counts as fair, arms are dropped on the reward clause
  against the survivors, and a lone survivor is the decision.

Runs read a ``PreparedInstance``, built once per model, arm set and cost
cap by ``prepare``, and look nothing up: a run keeps only its generator,
sample pool, variant, tolerance and extra rows.  The LP of a phase depends
only on the instance content (the three divergence matrices, the cost rows,
the budget and the extra rows; the cheap-arm cap brings in T) and on the
(survivors, rule) pair.  Seeded runs of one instance keep meeting the same
problems, so every run solves through one memo that lives for the whole
process:

- the outer map is keyed on the bytes, shape and dtype of the matrices and
  on the cost rows, budget and extra rows, never on object identity, so
  equal instances prepared apart share an entry.  The matrix
  bytes are held once per instance; each instance maps (survivors, rule) to
  its solution and its rounded counts per phase length (at most
  ``_MEMO_ROUNDINGS``).  At most ``_MEMO_INSTANCES`` instances with at most
  ``_MEMO_PROBLEMS`` solutions each are kept, the least recently used going
  first;
- a memoized ``Allocation`` is shared by every phase record that reuses it,
  so its ``nu_*`` and rounded ``tau_*`` arrays are read-only.

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
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import sampling
from .allocation import Allocation, build_problem, costs_from_arms, round_counts, solve_maxmin
from .divergence import DivergenceSet
from .estimation import EstimateVector, SamplePool, estimate_all
from .model import Arm, CausalModel, array_key, check_fairness_eps

__all__ = [
    "MIN_T_CSR",
    "MIN_T_TWO_STAGE",
    "PhaseSchedule",
    "PhaseRecord",
    "RunTrace",
    "phase_schedule",
    "fair_set",
    "eliminate",
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
class PhaseSchedule:
    """Phase count, per-phase pull counts, and the harmonic normalizer."""

    n: int
    tau: np.ndarray
    logbar: float


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


def phase_schedule(T: int) -> PhaseSchedule:
    """n = ceil(log2(10 sqrt(T))) phases with tau(l) ~ T/(l logbar).

    Floor rounding leaves a deficit of at most n pulls, which goes to the
    first phase so the counts sum to T exactly.
    """
    if T < MIN_T_CSR:
        raise ValueError(f"T must be >= {MIN_T_CSR}")
    n = math.ceil(math.log2(10.0 * math.sqrt(T)))
    logbar = float(sum(1.0 / i for i in range(1, n + 1)))
    tau = np.array([int(T // (l * logbar)) for l in range(1, n + 1)], dtype=np.int64)
    tau[0] += T - int(tau.sum())
    return PhaseSchedule(n=n, tau=tau, logbar=logbar)


def fair_set(
    estimates: EstimateVector, l: int, fairness_eps: float, remaining: Sequence[int]
) -> tuple[int, ...]:
    """Arms whose both directional estimates clear the threshold by 3/2^l.

    All four inequalities are strict; a missing estimate (NaN, which compares
    false) keeps the arm out.
    """
    margin = 3.0 / 2.0**l
    arms = np.asarray(remaining, dtype=np.intp)
    z = np.array((estimates.zeta_ssp[arms], estimates.zeta_sps[arms]))
    fair = ((z + margin < fairness_eps) & (z - margin > -fairness_eps)).all(axis=0)
    return tuple(arms[fair].tolist())


def _best_outcome(estimates: EstimateVector, candidates: Sequence[int]) -> int | None:
    """Argmax of the outcome estimate, ties and all-missing to lowest index."""
    best = None
    best_val = -math.inf
    for k in candidates:
        val = estimates.y[k]
        val = -math.inf if np.isnan(val) else float(val)
        if best is None or val > best_val:
            best, best_val = k, val
    return best


_UNFAIR_TAGS = ("unfair-high-ssp", "unfair-low-ssp", "unfair-high-sps", "unfair-low-sps")


def _unfair_records(
    estimates: EstimateVector, l: int, fairness_eps: float, remaining: Sequence[int]
) -> list[tuple[int, str]]:
    """One record per fired unfairness clause, arm by arm in ``_UNFAIR_TAGS`` order;
    a missing (NaN) estimate fires none."""
    margin = 3.0 / 2.0**l
    arms = np.asarray(remaining, dtype=np.intp)
    z = np.array((estimates.zeta_ssp[arms], estimates.zeta_sps[arms])).T
    # fired[i, d, h]: arm i, direction d (ssp, sps), high or low; row-major is
    # arm by arm in ``_UNFAIR_TAGS`` order.
    fired = np.array((z - margin > fairness_eps, z + margin < -fairness_eps)).transpose(1, 2, 0)
    rows, tags = np.nonzero(fired.reshape(len(arms), len(_UNFAIR_TAGS)))
    return [(k, _UNFAIR_TAGS[t]) for k, t in zip(arms[rows].tolist(), tags.tolist())]


def _suboptimal_records(
    estimates: EstimateVector, l: int, reference: Sequence[int], remaining: Sequence[int]
) -> list[tuple[int, str]]:
    """Arms of ``remaining`` whose outcome estimate trails the best of ``reference``
    by more than 5/2^l; missing estimates neither set nor fail the bar."""
    y_ref = estimates.y[np.asarray(reference, dtype=np.intp)]
    y_ref = y_ref[~np.isnan(y_ref)]
    if not y_ref.size:
        return []
    arms = np.asarray(remaining, dtype=np.intp)
    beaten = y_ref.max() > estimates.y[arms] + 5.0 / 2.0**l
    return [(k, "suboptimal") for k in arms[beaten].tolist()]


def eliminate(
    estimates: EstimateVector,
    fair: Sequence[int],
    l: int,
    fairness_eps: float,
    remaining: Sequence[int],
) -> tuple[tuple[int, ...], tuple[tuple[int, str], ...]]:
    """Drop arms beaten by the best fair arm or provably unfair.

    With no certified-fair arm the phase eliminates nothing.  Arms with
    missing estimates are exempt from the clauses they lack data for.
    Returns the surviving set and one (arm, reason) record per fired clause.
    """
    if not fair:
        return tuple(remaining), ()
    records = _suboptimal_records(estimates, l, fair, remaining)
    records += _unfair_records(estimates, l, fairness_eps, remaining)
    dropped = {k for k, _ in records}
    return tuple(k for k in remaining if k not in dropped), tuple(records)


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
    ``costs`` are read-only, ``key`` is the content key of its allocation-memo entry.
    A named tuple, since a run's set-up builds one per ``run_algorithm`` call."""

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


# Bounds of the allocation memo: instances, problems per instance, roundings per problem.
_MEMO_INSTANCES = 8
_MEMO_PROBLEMS = 512
_MEMO_ROUNDINGS = 32
_SOLVED: OrderedDict[tuple, OrderedDict[tuple, tuple[Allocation, dict[int, Allocation]]]] = OrderedDict()


class _Allocator:
    """Max-min allocations over the survivors of one LP instance, and their counts, memoized."""

    def __init__(self, prepared: PreparedInstance,
                 extra_constraints: Sequence[tuple[np.ndarray, float]]) -> None:
        self.prepared = prepared
        self.extra_constraints = extra_constraints
        key = (prepared.key, tuple((array_key(c), float(ub)) for c, ub in extra_constraints))
        self.solved = _SOLVED.get(key)
        if self.solved is None:
            self.solved = _SOLVED[key] = OrderedDict()
            if len(_SOLVED) > _MEMO_INSTANCES:
                _SOLVED.popitem(last=False)
        else:
            _SOLVED.move_to_end(key)

    def __call__(self, remaining: tuple[int, ...], rule: str, tau: int | None = None) -> Allocation:
        """The allocation over ``remaining`` (sorted) under ``rule``, rounded to
        ``tau`` pulls when given; solved, and rounded, on a miss only."""
        found = self.solved.get((remaining, rule))
        if found is not None:
            self.solved.move_to_end((remaining, rule))
        else:
            p = self.prepared
            alloc = solve_maxmin(build_problem(
                p.divergences, p.costs, p.budget, remaining, self.extra_constraints,
                include_outcome=rule != "fairness", include_fairness=rule != "outcome",
            ))
            for nu in (alloc.nu_y, alloc.nu_s, alloc.nu_sp):
                nu.flags.writeable = False
            found = self.solved[remaining, rule] = (alloc, {})
            if len(self.solved) > _MEMO_PROBLEMS:
                self.solved.popitem(last=False)
        alloc, rounded = found
        if tau is None or tau in rounded:
            return alloc if tau is None else rounded[tau]
        zero = np.zeros(len(alloc.nu_y), dtype=np.int64)  # a zero-length phase pulls nothing
        counts = round_counts(alloc, tau) if tau else replace(
            alloc, tau_y=zero, tau_s=zero.copy(), tau_sp=zero.copy())
        for array in (counts.tau_y, counts.tau_s, counts.tau_sp):
            array.flags.writeable = False
        rounded[tau] = counts
        if len(rounded) > _MEMO_ROUNDINGS:
            del rounded[next(iter(rounded))]
        return counts


@dataclass
class _Run:
    """One run's own state over a prepared instance; every phase pulls from
    the instance's cell laws into ``pool``, which under v1 each phase clears first."""

    prepared: PreparedInstance
    fairness_eps: float
    variant: str
    rng: np.random.Generator | None
    extra_constraints: Sequence[tuple[np.ndarray, float]]

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng() if self.rng is None else self.rng
        self.pool = SamplePool(self.prepared.tables)
        self.allocation = _Allocator(self.prepared, self.extra_constraints)


def _run_stage(
    run: _Run, T: int, remaining: tuple[int, ...], stage: int, rule: str,
    phases: list[PhaseRecord],
) -> tuple[tuple[int, ...], int | None]:
    """One phase schedule of ``T`` pulls over ``remaining``; appends a record per phase.

    Returns the survivors and, when the stage ended at a lone survivor, that
    arm as the decision (None otherwise).  See the module docstring for the
    three rules.
    """
    sched = phase_schedule(T)
    for l in range(1, sched.n + 1):
        eps = 2.0 ** (-(l - 1))
        alloc = run.allocation(remaining, rule, int(sched.tau[l - 1]))
        if run.variant == "v1":
            run.pool.clear()
        spent, cost = _pull_phase(run, alloc)
        estimates = estimate_all(run.pool, eps, run.prepared.divergences)
        if rule == "outcome":
            fair = remaining
        else:
            fair = fair_set(estimates, l, run.fairness_eps, remaining)
        decided = rule != "fairness" and len(remaining) == 1
        if decided:
            eliminated = ()
        elif rule == "joint":
            eliminated = eliminate(estimates, fair, l, run.fairness_eps, remaining)[1]
        elif rule == "fairness":
            eliminated = tuple(_unfair_records(estimates, l, run.fairness_eps, remaining))
        else:
            eliminated = tuple(_suboptimal_records(estimates, l, remaining, remaining))
        phases.append(
            PhaseRecord(l, stage, eps, remaining, fair, alloc, estimates, eliminated, spent, cost)
        )
        if decided:
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
