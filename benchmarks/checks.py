"""Checks of faircb's outputs against computations made apart from faircb.

Each check returns a list of problems; an empty list is a pass.  Oracle
truths come from the synthetic family's closed form or from a direct
summation over the network's conditional tables, never from faircb's
enumeration code; the remaining checks test properties the method must
have.  No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from faircb import sweep
from faircb.bandit import RunTrace
from faircb.divergence import DivergenceSet
from faircb.model import CausalModel, Instance
from faircb.sweep import ALGORITHMS, ErrorCurve

ATOL = 1e-9
# csr-v2 at a workload's top budget must misidentify at most this share of
# its latency-loop runs.  Runs at these budgets are almost always right, so
# the ceiling states that the method beats guessing by a wide margin, not
# today's rate.
ERROR_CEILING = 0.25


def synthetic_truth(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, zeta_ssp, zeta_sps) from the closed form in ``faircb.synth``'s docstring.

    With noise parameter q, outcome score f and g(p) = E_binom(p)[f],
    mu = (1 - q) + (2q - 1)(g(c) + g(d)) / 2 and zeta = (2q - 1)(g(c) - g(d)),
    where the arm's table rows under s and s' give g(c) and g(d) directly.
    """
    model = instance.model
    q = float(model.cpts["eps"][0, 1])
    f = model.cpts["Y"][0::2, 0]  # P(Y=0 | V=v, eps=0) is f(v)
    scale = 2.0 * q - 1.0
    g = np.array([[arm.table[0] @ f, arm.table[1] @ f] for arm in instance.arms])
    mu = (1.0 - q) + scale * (g[:, 0] + g[:, 1]) / 2.0
    zeta = scale * (g[:, 0] - g[:, 1])
    return mu, zeta, -zeta


def _ancestors(model: CausalModel, node: str) -> list[str]:
    seen, stack = {node}, [node]
    while stack:
        for p in model.parents[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return [x for x in model.nodes if x in seen]


def _summed_mean(model: CausalModel, v_table: np.ndarray, s_value: int | None = None) -> float:
    """E[Y] by one einsum over the target's ancestors' tables, S optionally clamped."""
    nodes = _ancestors(model, model.target)
    letter = {x: chr(ord("a") + i) for i, x in enumerate(nodes)}
    operands, terms = [], []
    for x in nodes:
        table = v_table if x == model.intervention else model.cpts[x]
        if x == model.sensitive and s_value is not None:
            table = np.eye(model.cards[x])[[s_value]]
        shape = [model.cards[p] for p in model.parents[x]] + [model.cards[x]]
        operands.append(table.reshape(shape))
        terms.append("".join(letter[p] for p in model.parents[x]) + letter[x])
    p_target = np.einsum(",".join(terms) + "->" + letter[model.target], *operands)
    return float(p_target @ model.target_values)


def network_truth(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, zeta_ssp, zeta_sps) by direct summation.

    Every child of S is reweighted from the evidence value to the
    counterfactual one, so the gap equals E[Y | do(S=s)] - E[Y | do(S=s')].
    """
    model = instance.model
    mu, gap = [], []
    for arm in instance.arms:
        mu.append(_summed_mean(model, arm.table))
        gap.append(_summed_mean(model, arm.table, 0) - _summed_mean(model, arm.table, 1))
    gap_arr = np.array(gap)
    return np.array(mu), gap_arr, -gap_arr


def oracle_problems(report: dict, truth: tuple[np.ndarray, ...], eps: float) -> list[str]:
    """Means, gaps, fair set, best fair arm and reward gaps against the truth."""
    mu, z_ssp, z_sps = truth
    problems = []
    for key, want in (("mu", mu), ("zeta_ssp", z_ssp), ("zeta_sps", z_sps)):
        err = float(np.max(np.abs(np.asarray(report[key]) - want)))
        if err > ATOL:
            problems.append(f"{key} off by {err:.3e}")
    fair = [k for k in range(len(mu)) if abs(z_ssp[k]) < eps and abs(z_sps[k]) < eps]
    best = max(fair, key=lambda k: (mu[k], -k)) if fair else None
    if list(report["fair"]) != fair:
        problems.append(f"fair set {report['fair']} != {fair}")
    if report["best_fair"] != best:
        problems.append(f"best fair arm {report['best_fair']} != {best}")
    elif best is not None:
        for k in fair:
            if abs(report["fair_gaps"][k] - (mu[best] - mu[k])) > ATOL:
                problems.append(f"reward gap of arm {k} off")
    return problems


def divergence_problems(divs: DivergenceSet, band: tuple[float, float] | None) -> list[str]:
    """M has a unit diagonal and M >= 1; both D are >= ln 2; column 0 inside the band."""
    problems = []
    if np.any(np.abs(np.diag(divs.m) - 1.0) > 1e-12):
        problems.append("M diagonal is not 1")
    if np.any(divs.m < 1.0 - 1e-12):
        problems.append(f"M below 1: min {divs.m.min():.6g}")
    for name, d in (("D_ssp", divs.d_ssp), ("D_sps", divs.d_sps)):
        if np.any(d < math.log(2.0) - 1e-12):
            problems.append(f"{name} below ln 2: min {d.min():.6g}")
    if band is not None:
        lo, hi = band
        for name, mat in (("M", divs.m), ("D_ssp", divs.d_ssp), ("D_sps", divs.d_sps)):
            col = mat[1:, 0]
            if not (np.all(col > lo) and np.all(col < hi)):
                problems.append(f"{name}[:, 0] leaves the band {band}: {col.round(3).tolist()}")
    return problems


def network_structure_problems(instance: Instance) -> list[str]:
    model = instance.model
    arcs = sum(len(ps) for ps in model.parents.values())
    if len(model.nodes) != 70 or arcs != 123:
        return [f"{len(model.nodes)} nodes / {arcs} arcs, expected 70 / 123"]
    return []


def schedule(T: int) -> list[int]:
    """Phase lengths: n = ceil(log2(10 sqrt T)), tau_l = floor(T / (l H_n)), rest to phase 1."""
    n = math.ceil(math.log2(10.0 * math.sqrt(T)))
    harmonic = sum(1.0 / i for i in range(1, n + 1))
    tau = [int(T // (l * harmonic)) for l in range(1, n + 1)]
    tau[0] += T - sum(tau)
    return tau


def phase_problems(trace: RunTrace, algorithm: str, T: int, costs: np.ndarray) -> list[str]:
    """Every phase's fractions, cost, v_star and rounded counts; the run's total samples."""
    problems = []
    budget = float(costs.max())
    stage_len = T if algorithm.startswith("csr") else T // 2
    tau = schedule(stage_len)
    for p in trace.phases:
        a = p.allocation
        nu = np.concatenate([a.nu_y, a.nu_s, a.nu_sp])
        counts = np.concatenate([a.tau_y, a.tau_s, a.tau_sp])
        where = f"stage {p.stage} phase {p.phase}"
        if np.any(nu < 0.0) or abs(nu.sum() - 1.0) > ATOL:
            problems.append(f"{where}: fractions not a distribution")
        if float(costs.reshape(-1) @ nu) > budget + ATOL:
            problems.append(f"{where}: cost over budget")
        if not a.v_star > 0.0:
            problems.append(f"{where}: v_star {a.v_star}")
        if np.any(counts < 0) or int(counts.sum()) != tau[p.phase - 1] or p.samples != counts.sum():
            problems.append(f"{where}: counts sum {int(counts.sum())}, phase length {tau[p.phase - 1]}")
    if trace.samples_spent > T:
        problems.append(f"spent {trace.samples_spent} samples of {T}")
    return problems


def grid_problems(curve: ErrorCurve, budgets: Sequence[int], runs: int, truth: int | None) -> list[str]:
    grid = [(row.budget, row.algorithm, row.runs) for row in curve.rows]
    want = [(int(T), a, runs) for T in budgets for a in ALGORITHMS]
    problems = [] if grid == want else [f"sweep grid {grid} != {want}"]
    if curve.truth != truth:
        problems.append(f"sweep truth {curve.truth} != oracle {truth}")
    return problems


def rerun_problems(
    instance: Instance,
    divs: DivergenceSet,
    curve: ErrorCurve,
    row_index: int,
    budgets: Sequence[int],
    base_seed: int,
    costs: np.ndarray,
) -> list[str]:
    """Rerun every seeded run of one sweep row alone and compare its tallies.

    Run ``r`` of (budget index ``b``, algorithm ``a``) draws from
    ``SeedSequence(base_seed, spawn_key=(b, ALGORITHMS.index(a), r))``.
    """
    row = curve.rows[row_index]
    b = list(budgets).index(row.budget)
    wrong = none = 0
    problems = []
    for r in range(row.runs):
        ss = np.random.SeedSequence(base_seed, spawn_key=(b, ALGORITHMS.index(row.algorithm), r))
        trace = sweep.run_algorithm(
            instance, row.algorithm, row.budget, np.random.default_rng(ss),
            budget=sweep.default_budget(instance), divergences=divs,
        )
        wrong += trace.decision != curve.truth
        none += trace.decision is None
        problems += phase_problems(trace, row.algorithm, row.budget, costs)
    if (wrong, none) != (row.misidentifications, row.no_fair_arm):
        problems.append(
            f"T={row.budget} {row.algorithm}: rerun gives {wrong} wrong / {none} none, "
            f"sweep gave {row.misidentifications} / {row.no_fair_arm}"
        )
    return problems


def error_ceiling_problems(decisions: Sequence[int | None], truth: int | None) -> list[str]:
    wrong = sum(d != truth for d in decisions)
    if not decisions or wrong / len(decisions) > ERROR_CEILING:
        return [f"{wrong} of {len(decisions)} top-budget runs misidentified (ceiling {ERROR_CEILING})"]
    return []


def same_outcomes(a: ErrorCurve, b: ErrorCurve) -> list[str]:
    """Two sweeps of one grid and seed agree on every tally (wall times aside)."""
    def tallies(curve):
        return [(r.budget, r.algorithm, r.misidentifications, r.no_fair_arm, r.failures)
                for r in curve.rows]

    return [] if tallies(a) == tallies(b) else ["sweep tallies differ between passes"]
