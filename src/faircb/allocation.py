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

import importlib
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Sequence

import numpy as np
import scipy

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


def _scipy_extension(name: str):
    """The scipy extension module ``name``, loaded without its packages' ``__init__``.

    A plain import of ``scipy.optimize._highspy._core`` first runs
    ``scipy/optimize/__init__.py``, which imports scipy.special, linalg and
    sparse: hundreds of modules and tens of MB that no faircb process uses.
    Instead the file is looked up where scipy's layout keeps it (the
    ``_core`` extension in ``scipy/optimize/_highspy/`` under
    ``scipy.__path__[0]``), and the module is entered in ``sys.modules`` under
    its own name before it runs, so a later ``import scipy.optimize`` (the
    tests' ``linprog`` reference) reuses this module instead of loading the
    extension again.  If scipy's layout has no such file, the ordinary package
    import loads it.  A module loaded by file is never bound as an attribute
    of its parent package: after a later ``import scipy.optimize``, reading
    ``scipy.optimize._highspy._core`` raises AttributeError, while importing
    it still finds the module.
    """
    if name not in sys.modules:
        where = os.path.join(scipy.__path__[0], *name.split(".")[1:-1])
        spec = PathFinder.find_spec(name, [where])
        if spec is not None:
            module = module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
    return importlib.import_module(name)


# Private to scipy; test_solve_maxmin_matches_linprog_bit_for_bit pins it to linprog.
_highs = _scipy_extension("scipy.optimize._highspy._core")

# The options linprog(method="highs") sets: presolve on, no output, dual simplex.
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.output_flag = _HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.highs_debug_level = _highs.kHighsDebugLevelNone
_HIGHS_OPTIONS.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual


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
    phase length and are ``None`` until then.  Both functions return read-only
    arrays, so an allocation can be shared, as the bandit's memo shares it.
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
    if not (np.all((costs >= 0.0) & (costs < np.inf)) and budget >= 0.0):
        raise ValueError("costs must be finite and nonnegative, and the budget nonnegative")
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
    plus the cost budget, any extra rows and the unit simplex over all 3K
    fractions.  Raises Infeasible when the region is empty.

    HiGHS gets the arrays and options that ``linprog(method="highs")`` would
    pass it, through ``passModel``'s array overload, so the solution has the
    same bits, without the front end's per-call checks and result wrapping.
    """
    K = problem.n_arms
    n_var = 3 * K + 1
    active = list(problem.active)
    families = [(problem.recip_m, 0)] if problem.include_outcome else []
    if problem.include_fairness:
        families += [(problem.recip_dsps, K), (problem.recip_dssp, 2 * K)]
    precision = np.zeros((len(families), len(active), n_var))
    for f, (recip, offset) in enumerate(families):
        precision[f, :, offset : offset + K] = -recip[active]
    precision[..., -1] = 1.0
    # linprog's row order: the budget, the extra rows, then the simplex as an equality row.
    fractions = np.zeros((len(problem.extra_constraints) + 2, n_var))
    fractions[0, : 3 * K] = problem.costs.reshape(-1)
    for row, (coeffs, _) in zip(fractions[1:], problem.extra_constraints):
        row[: 3 * K] = coeffs
    fractions[-1, : 3 * K] = 1.0
    a = np.vstack([precision.reshape(-1, n_var), fractions])
    row_upper = np.zeros(a.shape[0])
    row_upper[-len(fractions) :] = [problem.budget, *(ub for _, ub in problem.extra_constraints), 1.0]
    row_lower = np.full(a.shape[0], -_highs.kHighsInf)
    row_lower[-1] = 1.0
    col_upper = np.full(n_var, _highs.kHighsInf)
    if not problem.include_outcome:
        col_upper[:K] = 0.0
    if not problem.include_fairness:
        col_upper[K : 3 * K] = 0.0
    objective = np.zeros(n_var)
    objective[-1] = -1.0

    # int32 compressed columns (rows ascending) and a zero integrality per column, as an
    # empty one is rejected; passModel's array overload skips HighsLp's per-element copy.
    cols, rows = np.nonzero(a.T)
    start = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n_var))]).astype(np.int32)
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    if highs.passModel(
        n_var, a.shape[0], len(rows), _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize, 0.0,
        objective, np.zeros(n_var), col_upper, row_lower, row_upper, start,
        rows.astype(np.int32), a.T[cols, rows], np.zeros(n_var, dtype=np.int32),
    ) == _highs.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the allocation LP")
    highs.run()
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        raise Infeasible("allocation LP has no feasible point")
    if status != _highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solve failed: {highs.modelStatusToString(status)}")

    nu = np.clip(np.array(highs.getSolution().col_value)[: 3 * K], 0.0, None)
    total = nu.sum()
    if total > 0.0:
        nu = nu / total
    # Recompute v* from the cleaned fractions so it is consistent with them.
    v_star = min(float((recip @ nu[offset : offset + K])[active].min()) for recip, offset in families)
    nu.flags.writeable = False
    return Allocation(nu_y=nu[:K], nu_s=nu[K : 2 * K], nu_sp=nu[2 * K :], v_star=v_star)


def round_counts(allocation: Allocation, tau: int) -> Allocation:
    """Largest-remainder rounding of the 3K fractions to integers summing tau.

    Ties in the remainders go to the lowest concatenated index.  The targets
    and the remainders are snapped to a 1e-9 grid first, so a tie that is
    exact in real arithmetic stays a tie whatever the LP's last bits; the
    deficit stays nonnegative, since 3K * 5e-10 < 1.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    fractions = np.concatenate([allocation.nu_y, allocation.nu_s, allocation.nu_sp])
    target = fractions * tau
    counts = np.floor(target.round(9)).astype(np.int64)
    deficit = int(tau - counts.sum())
    if deficit > 0:
        order = np.argsort(-(target - counts).round(9), kind="stable")
        counts[order[:deficit]] += 1
    counts.flags.writeable = False
    K = allocation.nu_y.shape[0]
    return replace(
        allocation,
        tau_y=counts[:K],
        tau_s=counts[K : 2 * K],
        tau_sp=counts[2 * K :],
    )
