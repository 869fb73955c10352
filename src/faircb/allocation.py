"""Max-min budget allocation of phase pulls across arms and regimes.

Each phase splits its pulls between observational draws and the two forced
regimes of every arm.  The split maximizes the worst guaranteed precision
weight over the surviving arms: for each survivor ``k`` the pooled estimators
earn ``sum_j nu_j / M_kj`` (outcome) and ``sum_j nu_j / D_kj`` (fairness)
effective samples per pull, and the LP pushes the smallest of those sums as
high as the cost budget allows.  Fractions range over all arms, not just the
survivors, so cheap eliminated arms can still be pulled for leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .divergence import DivergenceSet
from .errors import Infeasible
from .model import Arm

__all__ = [
    "AllocationProblem",
    "Allocation",
    "costs_from_arms",
    "cheap_arm_cap",
    "build_problem",
    "solve_maxmin",
    "round_counts",
]


@dataclass
class AllocationProblem:
    """LP data: reciprocal divergence matrices, costs, budget, active rows.

    ``recip_m[k, j] = 1/M[k, j]`` weights observational fractions,
    ``recip_dsps`` pairs with the force-s fractions and ``recip_dssp`` with
    the force-s' fractions.  ``extra_constraints`` are extra inequality rows
    ``coeffs . nu <= ub`` over the concatenated ``3K`` fractions.
    """

    recip_m: np.ndarray
    recip_dssp: np.ndarray
    recip_dsps: np.ndarray
    costs: np.ndarray
    budget: float
    active: tuple[int, ...]
    extra_constraints: tuple[tuple[np.ndarray, float], ...] = ()
    include_outcome: bool = True
    include_fairness: bool = True

    @property
    def n_arms(self) -> int:
        return self.recip_m.shape[0]


@dataclass
class Allocation:
    """Optimal fractions with the achieved max-min value ``v_star``.

    The integer counts are filled in by :func:`round_counts` for a concrete
    phase length and are ``None`` until then.
    """

    nu_y: np.ndarray
    nu_s: np.ndarray
    nu_sp: np.ndarray
    v_star: float
    tau_y: np.ndarray | None = None
    tau_s: np.ndarray | None = None
    tau_sp: np.ndarray | None = None


def costs_from_arms(arms: Sequence[Arm]) -> np.ndarray:
    """Per-regime cost rows (pull, force-s, force-s') as a (3, K) array."""
    return np.array(
        [
            [a.cost_pull for a in arms],
            [a.cost_force_s for a in arms],
            [a.cost_force_sprime for a in arms],
        ]
    )


def cheap_arm_cap(n_arms: int, cheap: int, T: int) -> tuple[np.ndarray, float]:
    """Cap the total fraction spent off the cheap arm at just under 1/sqrt(T).

    The strict cap is closed off by a 1e-12 shave so the feasible region
    stays closed.
    """
    if not T >= 1:
        raise ValueError(f"the cheap-arm cap needs a budget T >= 1, got {T}")
    coeffs = np.ones(3 * n_arms)
    coeffs[[cheap, n_arms + cheap, 2 * n_arms + cheap]] = 0.0
    return coeffs, (1.0 - 1e-12) / np.sqrt(T)


def build_problem(
    divergences: DivergenceSet,
    costs: np.ndarray,
    budget: float,
    active: Sequence[int],
    extra_constraints: Sequence[tuple[np.ndarray, float]] = (),
    include_outcome: bool = True,
    include_fairness: bool = True,
) -> AllocationProblem:
    """Assemble the reciprocal matrices and constraint data for one solve."""
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (3, divergences.n_arms):
        raise ValueError(f"costs must be (3, K), got {costs.shape}")
    if np.any(costs < 0.0) or budget < 0.0:
        raise ValueError("costs and budget must be nonnegative")
    active = tuple(sorted(set(int(k) for k in active)))
    if not active:
        raise ValueError("active set must be nonempty")
    if active[0] < 0 or active[-1] >= divergences.n_arms:
        raise ValueError(f"active arms must lie in 0..{divergences.n_arms - 1}, got {list(active)}")
    if not (include_outcome or include_fairness):
        raise ValueError("at least one estimator family must stay in the objective")
    extras = tuple(
        (np.asarray(coeffs, dtype=float), float(ub)) for coeffs, ub in extra_constraints
    )
    for coeffs, _ in extras:
        if coeffs.shape != (3 * divergences.n_arms,):
            raise ValueError("extra constraint coefficients must cover 3K fractions")
    return AllocationProblem(
        recip_m=1.0 / divergences.m,
        recip_dssp=1.0 / divergences.d_ssp,
        recip_dsps=1.0 / divergences.d_sps,
        costs=costs,
        budget=float(budget),
        active=active,
        extra_constraints=extras,
        include_outcome=include_outcome,
        include_fairness=include_fairness,
    )


def solve_maxmin(problem: AllocationProblem) -> Allocation:
    """Maximize t s.t. every active row of every included family reaches t.

    Epigraph form over x = [nu_y, nu_s, nu_sp, t]: each active arm k
    contributes rows (A nu_y)_k >= t, (B nu_s)_k >= t, (C nu_sp)_k >= t,
    plus the cost budget, the unit simplex over all 3K fractions, and any
    extra rows.  Raises Infeasible when the region is empty.
    """
    K = problem.n_arms
    n_var = 3 * K + 1
    rows: list[np.ndarray] = []
    ubs: list[float] = []

    def _precision_rows(recip: np.ndarray, offset: int) -> None:
        for k in problem.active:
            row = np.zeros(n_var)
            row[offset : offset + K] = -recip[k]
            row[-1] = 1.0
            rows.append(row)
            ubs.append(0.0)

    if problem.include_outcome:
        _precision_rows(problem.recip_m, 0)
    if problem.include_fairness:
        _precision_rows(problem.recip_dsps, K)
        _precision_rows(problem.recip_dssp, 2 * K)

    budget_row = np.zeros(n_var)
    budget_row[: 3 * K] = problem.costs.reshape(-1)
    rows.append(budget_row)
    ubs.append(problem.budget)

    for coeffs, ub in problem.extra_constraints:
        row = np.zeros(n_var)
        row[: 3 * K] = coeffs
        rows.append(row)
        ubs.append(ub)

    a_eq = np.zeros((1, n_var))
    a_eq[0, : 3 * K] = 1.0

    bounds: list[tuple[float, float | None]] = []
    for enabled in (problem.include_outcome, problem.include_fairness, problem.include_fairness):
        bounds.extend([(0.0, None) if enabled else (0.0, 0.0)] * K)
    bounds.append((0.0, None))

    objective = np.zeros(n_var)
    objective[-1] = -1.0
    res = linprog(
        objective,
        A_ub=np.array(rows),
        b_ub=np.array(ubs),
        A_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        raise Infeasible("allocation LP has no feasible point")
    if res.status != 0:
        raise RuntimeError(f"LP solve failed with status {res.status}: {res.message}")

    nu = np.clip(res.x[: 3 * K], 0.0, None)
    total = nu.sum()
    if total > 0.0:
        nu = nu / total
    nu_y, nu_s, nu_sp = nu[:K], nu[K : 2 * K], nu[2 * K :]

    # Recompute v* from the cleaned fractions so it is consistent with them.
    idx = list(problem.active)
    values = []
    if problem.include_outcome:
        values.append((problem.recip_m @ nu_y)[idx])
    if problem.include_fairness:
        values.append((problem.recip_dsps @ nu_s)[idx])
        values.append((problem.recip_dssp @ nu_sp)[idx])
    v_star = float(min(np.min(v) for v in values))
    return Allocation(nu_y=nu_y, nu_s=nu_s, nu_sp=nu_sp, v_star=v_star)


def round_counts(allocation: Allocation, tau: int) -> Allocation:
    """Largest-remainder rounding of the 3K fractions to integers summing tau.

    Ties in the remainders go to the lowest concatenated index.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    fractions = np.concatenate([allocation.nu_y, allocation.nu_s, allocation.nu_sp])
    target = fractions * tau
    counts = np.floor(target).astype(np.int64)
    deficit = int(tau - counts.sum())
    if deficit > 0:
        order = np.argsort(-(target - counts), kind="stable")
        counts[order[:deficit]] += 1
    K = allocation.nu_y.shape[0]
    return replace(
        allocation,
        tau_y=counts[:K],
        tau_s=counts[K : 2 * K],
        tau_sp=counts[2 * K :],
    )
