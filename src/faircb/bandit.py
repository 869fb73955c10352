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

The LP of a phase depends only on the instance content (the three divergence
matrices, the cost rows, the budget and the extra rows; the cheap-arm cap
brings in T) and on the (survivors, rule) pair.  Seeded runs of one instance
keep meeting the same problems, so every run and ``bound_report`` solve
through one memo that lives for the whole process:

- the outer map is keyed on the bytes, shape and dtype of the matrices and
  on the cost rows, budget and extra rows, never on object identity, so an
  in-place edit of a ``DivergenceSet`` makes a new instance.  The matrix
  bytes are held once per instance; each instance maps (survivors, rule) to
  its solution.  At most ``_MEMO_INSTANCES`` instances with at most
  ``_MEMO_PROBLEMS`` solutions each are kept, the least recently used going
  first;
- a memoized ``Allocation`` is shared by every phase record that reuses it,
  so its ``nu_*`` arrays are read-only.

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
from typing import Callable, Sequence

import numpy as np

from .allocation import Allocation, build_problem, costs_from_arms, round_counts, solve_maxmin
from .divergence import DivergenceSet
from .estimation import EstimateVector, SamplePool, estimate_all
from .model import REGIMES, Arm, check_fairness_eps
from .sampling import BatchSamples, Block

__all__ = [
    "MIN_T_CSR",
    "MIN_T_TWO_STAGE",
    "PhaseSchedule",
    "PhaseRecord",
    "RunTrace",
    "phase_schedule",
    "fair_set",
    "eliminate",
    "run_csr",
    "run_two_stage",
    "bound_report",
]

Sampler = Callable[[Sequence[Block], np.random.Generator], BatchSamples]

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

    All four inequalities are strict; a missing estimate keeps the arm out.
    """
    margin = 3.0 / 2.0**l
    fair = []
    for k in remaining:
        z1 = estimates.zeta_ssp[k]
        z2 = estimates.zeta_sps[k]
        if np.isnan(z1) or np.isnan(z2):
            continue
        if (
            z1 + margin < fairness_eps
            and z1 - margin > -fairness_eps
            and z2 + margin < fairness_eps
            and z2 - margin > -fairness_eps
        ):
            fair.append(k)
    return tuple(fair)


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


def _unfair_records(
    estimates: EstimateVector, l: int, fairness_eps: float, remaining: Sequence[int]
) -> list[tuple[int, str]]:
    margin = 3.0 / 2.0**l
    records = []
    for k in remaining:
        for z, tag in ((estimates.zeta_ssp[k], "ssp"), (estimates.zeta_sps[k], "sps")):
            if np.isnan(z):
                continue
            if z - margin > fairness_eps:
                records.append((k, f"unfair-high-{tag}"))
            if z + margin < -fairness_eps:
                records.append((k, f"unfair-low-{tag}"))
    return records


def _suboptimal_records(
    estimates: EstimateVector, l: int, reference: Sequence[int], remaining: Sequence[int]
) -> list[tuple[int, str]]:
    y_ref = [estimates.y[k] for k in reference if not np.isnan(estimates.y[k])]
    if not y_ref:
        return []
    y_h = max(y_ref)
    gap = 5.0 / 2.0**l
    return [
        (k, "suboptimal")
        for k in remaining
        if not np.isnan(estimates.y[k]) and y_h > estimates.y[k] + gap
    ]


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


def _round_phase(alloc: Allocation, tau_l: int, n_arms: int) -> Allocation:
    """round_counts, except a zero-length phase yields all-zero counts."""
    if tau_l > 0:
        return round_counts(alloc, tau_l)
    zero = np.zeros(n_arms, dtype=np.int64)
    return replace(alloc, tau_y=zero, tau_s=zero.copy(), tau_sp=zero.copy())


def _pull_phase(
    sampler: Sampler,
    pool: SamplePool,
    allocation: Allocation,
    costs: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, float]:
    """Execute the rounded counts in one sampler call; returns (samples, cost) spent.

    The blocks run arm by arm, then in ``REGIMES`` order, skipping zero counts.
    """
    counts = (allocation.tau_y, allocation.tau_s, allocation.tau_sp)
    blocks = []
    cost = 0.0
    for j in range(costs.shape[1]):
        for row, regime in enumerate(REGIMES):
            cnt = int(counts[row][j])
            if cnt > 0:
                blocks.append((j, regime, cnt))
                cost += costs[row, j] * cnt
    if blocks:
        pool.add(sampler(blocks, rng))
    return sum(n for _, _, n in blocks), cost


# Bounds of the allocation memo: instances kept, and solved problems per instance.
_MEMO_INSTANCES = 8
_MEMO_PROBLEMS = 512
_SOLVED: OrderedDict[tuple, OrderedDict[tuple[tuple[int, ...], str], Allocation]] = OrderedDict()


def _bytes_key(array) -> tuple:
    array = np.asarray(array)
    return array.shape, array.dtype.str, array.tobytes()


class _Allocator:
    """Max-min allocations over the survivors of one LP instance, memoized process-wide."""

    def __init__(
        self,
        divergences: DivergenceSet,
        costs: np.ndarray,
        budget: float,
        extra_constraints: Sequence[tuple[np.ndarray, float]],
    ) -> None:
        self.divergences = divergences
        self.costs = costs
        self.budget = budget
        self.extra_constraints = extra_constraints
        key = (
            tuple(_bytes_key(a) for a in (divergences.m, divergences.d_ssp, divergences.d_sps)),
            _bytes_key(costs),
            float(budget),
            tuple((_bytes_key(coeffs), float(ub)) for coeffs, ub in extra_constraints),
        )
        self.solved = _SOLVED.get(key)
        if self.solved is None:
            self.solved = _SOLVED[key] = OrderedDict()
            if len(_SOLVED) > _MEMO_INSTANCES:
                _SOLVED.popitem(last=False)
        else:
            _SOLVED.move_to_end(key)

    def __call__(self, remaining: tuple[int, ...], rule: str) -> Allocation:
        """The allocation over ``remaining`` (sorted) under ``rule``, solved on a miss only."""
        key = (remaining, rule)
        alloc = self.solved.get(key)
        if alloc is not None:
            self.solved.move_to_end(key)
            return alloc
        problem = build_problem(
            self.divergences, self.costs, self.budget, remaining, self.extra_constraints,
            include_outcome=rule != "fairness", include_fairness=rule != "outcome",
        )
        alloc = solve_maxmin(problem)
        for nu in (alloc.nu_y, alloc.nu_s, alloc.nu_sp):
            nu.flags.writeable = False
        self.solved[key] = alloc
        if len(self.solved) > _MEMO_PROBLEMS:
            self.solved.popitem(last=False)
        return alloc


@dataclass
class _Run:
    """What every phase of one run reads; under v2 all its phases share ``pool``."""

    sampler: Sampler
    arms: Sequence[Arm]
    divergences: DivergenceSet
    budget: float
    fairness_eps: float
    variant: str
    rng: np.random.Generator | None
    extra_constraints: Sequence[tuple[np.ndarray, float]]

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng() if self.rng is None else self.rng
        self.costs = costs_from_arms(self.arms)
        self.pool = SamplePool(len(self.arms)) if self.variant == "v2" else None
        self.allocation = _Allocator(
            self.divergences, self.costs, self.budget, self.extra_constraints
        )


def _run_stage(
    run: _Run, T: int, remaining: tuple[int, ...], stage: int, rule: str,
    phases: list[PhaseRecord],
) -> tuple[tuple[int, ...], int | None]:
    """One phase schedule of ``T`` pulls over ``remaining``; appends a record per phase.

    Returns the survivors and, when the stage ended at a lone survivor, that
    arm as the decision (None otherwise).  See the module docstring for the
    three rules.
    """
    K = len(run.arms)
    sched = phase_schedule(T)
    for l in range(1, sched.n + 1):
        eps = 2.0 ** (-(l - 1))
        alloc = _round_phase(run.allocation(remaining, rule), int(sched.tau[l - 1]), K)
        pool = SamplePool(K) if run.pool is None else run.pool
        spent, cost = _pull_phase(run.sampler, pool, alloc, run.costs, run.rng)
        estimates = estimate_all(pool, run.arms, eps, run.divergences)
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
    sampler: Sampler,
    arms: Sequence[Arm],
    divergences: DivergenceSet,
    budget: float,
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
    run = _Run(sampler, arms, divergences, budget, fairness_eps, variant, rng, extra_constraints)
    phases: list[PhaseRecord] = []
    _, decision = _run_stage(run, T, tuple(range(len(arms))), 1, "joint", phases)
    if decision is None:
        certified = [p for p in phases if p.fair]
        if certified:
            decision = _best_outcome(certified[-1].estimates, certified[-1].fair)
    return _trace(phases, decision)


def run_two_stage(
    sampler: Sampler,
    arms: Sequence[Arm],
    divergences: DivergenceSet,
    budget: float,
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
    run = _Run(sampler, arms, divergences, budget, fairness_eps, inner, rng, extra_constraints)
    phases: list[PhaseRecord] = []
    survivors, _ = _run_stage(run, T // 2, tuple(range(len(arms))), 1, "fairness", phases)
    if not survivors:
        return _trace(phases, None)
    survivors, decision = _run_stage(run, T // 2, survivors, 2, "outcome", phases)
    if decision is None:
        decision = _best_outcome(phases[-1].estimates, survivors)
    return _trace(phases, decision)


def _bracket_phase(numerator: float, gap: float) -> float:
    """Smallest integer phase l with numerator/2^l < gap; inf when gap <= 0."""
    if gap <= 0.0:
        return math.inf
    return float(max(1, math.ceil(math.log2(numerator / gap))))


def bound_report(
    oracle: dict,
    divergences: DivergenceSet,
    costs: np.ndarray,
    budget: float,
    T: int,
    extra_constraints: Sequence[tuple[np.ndarray, float]] = (),
) -> dict:
    """Problem-dependent constants and both error bounds for an instance.

    Takes the exact oracle report (means, directional gaps, fair set) and
    rebuilds every constant of the two guarantees: per-arm ideal deletion
    phases, the hardness constant, and the exponential bounds, clamped to
    [0, 1] for reporting.
    """
    mu = np.asarray(oracle["mu"], dtype=float)
    zeta_ssp = np.asarray(oracle["zeta_ssp"], dtype=float)
    zeta_sps = np.asarray(oracle["zeta_sps"], dtype=float)
    fairness_eps = float(oracle["fairness_eps"])
    fair = list(oracle["fair"])
    best = oracle["best_fair"]
    K = mu.shape[0]
    sched = phase_schedule(T)

    allocation = _Allocator(divergences, costs, budget, extra_constraints)

    def vstar(active: Sequence[int]) -> float:
        return allocation(tuple(sorted({int(k) for k in active})), "joint").v_star

    delta = [None if best is None else float(mu[best] - mu[k]) for k in range(K)]
    so = [
        math.inf if delta[k] is None else _bracket_phase(10.0, delta[k]) for k in range(K)
    ]
    f_ssp = [
        _bracket_phase(6.0, max(zeta_ssp[k] - fairness_eps, -fairness_eps - zeta_ssp[k]))
        for k in range(K)
    ]
    f_sps = [
        _bracket_phase(6.0, max(zeta_sps[k] - fairness_eps, -fairness_eps - zeta_sps[k]))
        for k in range(K)
    ]

    l0 = None
    if best is not None:
        slacks = [
            fairness_eps + zeta_ssp[best],
            fairness_eps - zeta_ssp[best],
            fairness_eps + zeta_sps[best],
            fairness_eps - zeta_sps[best],
        ]
        l0 = float(max(math.log2(5.0 / s) for s in slacks))

    rho = []
    for k in range(K):
        if k == best:
            rho.append(math.inf)
            continue
        so_term = so[k] if l0 is None else max(so[k], l0)
        rho.append(float(min(so_term, f_ssp[k], f_sps[k])))

    # Minimal category gaps feed the worst-case deletion phase rho*.
    so_gaps = [delta[k] for k in fair if k != best and delta[k] is not None and delta[k] > 0]
    ssp_gaps = [
        min(abs(zeta_ssp[k] - fairness_eps), abs(zeta_ssp[k] + fairness_eps))
        for k in range(K)
        if abs(zeta_ssp[k]) >= fairness_eps
    ]
    sps_gaps = [
        min(abs(zeta_sps[k] - fairness_eps), abs(zeta_sps[k] + fairness_eps))
        for k in range(K)
        if abs(zeta_sps[k]) >= fairness_eps
    ]
    terms = []
    if so_gaps:
        terms.append(math.log2(20.0 / min(so_gaps)))
    if ssp_gaps:
        terms.append(math.log2(12.0 / min(ssp_gaps)))
    if sps_gaps:
        terms.append(math.log2(12.0 / min(sps_gaps)))
    rho_star = float(max(terms)) if terms else math.inf

    r_star = {k: [a for a in range(K) if rho[a] >= rho[k]] for k in range(K)}
    v_star_k = {}
    h_bar = 0.0
    for k in range(K):
        if k == best:
            continue
        v = vstar(r_star[k])
        v_star_k[k] = v
        if math.isinf(rho[k]):
            h_bar = math.inf
        else:
            h_bar = max(h_bar, rho[k] ** 3 * 2.0 ** (2.0 * rho[k]) / v**2)

    misid = None
    if best is not None and K > 1:
        expo = 0.0 if math.isinf(h_bar) else T / (8.0 * h_bar * sched.logbar)
        misid = float(min(1.0, 8.0 * K**2 * rho_star * math.exp(-expo)))

    v_full = vstar(range(K))
    xi_star = float(oracle["xi_star"])
    fair_err = float(
        min(
            1.0,
            4.0
            * K
            * sched.n
            * math.exp(-(xi_star**2) * T * v_full**2 / (32.0 * sched.n**3 * sched.logbar)),
        )
    )

    return {
        "T": T,
        "budget": float(budget),
        "fairness_eps": fairness_eps,
        "n_phases": sched.n,
        "logbar": sched.logbar,
        "best_fair": best,
        "delta": delta,
        "so": so,
        "f_ssp": f_ssp,
        "f_sps": f_sps,
        "l0": l0,
        "rho": rho,
        "rho_star": rho_star,
        "r_star": r_star,
        "v_star": v_star_k,
        "v_star_full": v_full,
        "h_bar": h_bar,
        "xi_star": xi_star,
        "misidentification_bound": misid,
        "fairness_error_bound": fair_err,
    }
