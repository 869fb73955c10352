"""Shared fixtures: hand-sized models, random enumerable instances, brute oracles.

The brute-force functions enumerate with plain ``itertools.product`` loops and
no ancestral pruning, so they cross-check the vectorized oracles through a
completely separate code path.  Likewise the single-pull sampler, the
full-walk ancestral batch sampler, the brute-force cell law, the scalar
importance weights, the per-pull ``ReferencePool`` and the per-target pooled
estimators below are written apart from the cell-law sampler, the per-cell
``SamplePool`` and ``estimate_all``, which the tests compare against them;
``blockwise_estimate_all`` is ``estimate_all`` one pulled block at a time, the
reference for the bytes of its batched pass; the
arm-by-arm certification and elimination loops likewise check the vectorized
clauses of ``bandit``.
The enumeration oracles (``marginal_rows``, ``exact_outcome_mean``,
``exact_fairness``) walk each quantity's own ancestral closure, apart from
the cell laws that ``oracle_report`` and ``DivergenceSet.exact`` reduce.
The batched weight functions (``transport_weight``, ``counterfactual_weight``)
and the general ``attribute_ratio_values`` weigh cells straight from arm
tables, apart from the factor table that the weight kernel and the oracle
report read.  The conditional f-divergence, the empirical weight quantiles
that the cutoff matrices must dominate, the Monte Carlo oracles and
``bound_report`` (the paper's problem-dependent constants and error bounds)
are references the package itself never needs.  ``reference_generate_synthetic``
is the synthetic generator one attempt at a time, on scipy's scalar
``brentq``, the reference for the chunked generator.  ``reference_parse_bif``
is the BIF parser one token at a time through a cursor, the reference for
the slicing parser.  ``fresh_python`` runs code in a new interpreter, for
what only a cold process shows.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.special import gammaln, logsumexp

import faircb
from faircb import bif, sampling, synth
from faircb.allocation import Allocation
from faircb.bandit import PreparedInstance, _allocate, _Run, phase_schedule
from faircb.divergence import DivergenceSet, _outcome_cutoff
from faircb.errors import (
    FairCBError, GenerationFailed, Infeasible, NormalizationError, ParseError, UnsupportedConstruct,
)
from faircb.estimation import EstimateVector, SamplePool
from faircb.model import (
    REGIMES, Arm, CausalModel, Instance, Regime, S_VALUE, SPRIME_VALUE, encode_rows, radix_strides,
    validate_model,
)
from faircb.netgen import build_network_experiment, liver_network
from faircb.sampling import BatchSamples, Cells
from faircb.oracles import enumerate_arms, enumerate_joint, oracle_report
from faircb.synth import SyntheticConfig, generate_synthetic

S_CHAIN_F = np.array([0.2, 0.5, 0.9])


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a new interpreter that imports this checkout's faircb."""
    src = str(Path(faircb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )


def chain_model() -> tuple[CausalModel, list[Arm]]:
    """S -> V -> Y with three arms and closed-form truth.

    mu = [0.508, 0.570, 8/15], zeta_ssp = [-0.13, -0.35, 0].
    """
    model = CausalModel(
        nodes=("S", "V", "Y"),
        cards={"S": 2, "V": 3, "Y": 2},
        parents={"S": (), "V": ("S",), "Y": ("V",)},
        cpts={
            "S": np.array([[0.4, 0.6]]),
            "V": np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]]),
            "Y": np.column_stack([1.0 - S_CHAIN_F, S_CHAIN_F]),
        },
        sensitive="S",
        intervention="V",
        target="Y",
        target_values=np.array([0.0, 1.0]),
    )
    arms = [
        Arm(0, model.cpts["V"].copy()),
        Arm(1, np.array([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]])),
        Arm(2, np.full((2, 3), 1.0 / 3.0)),
    ]
    return model, arms


def side_child_model() -> tuple[CausalModel, list[Arm]]:
    """S with two children (V and a non-intervention W), Y reads both.

    mu = [0.4525, 0.4525], zeta_ssp = [-0.225, 0.175].
    """
    model = CausalModel(
        nodes=("S", "V", "W", "Y"),
        cards={"S": 2, "V": 2, "W": 2, "Y": 2},
        parents={"S": (), "V": ("S",), "W": ("S",), "Y": ("V", "W")},
        cpts={
            "S": np.array([[0.5, 0.5]]),
            "V": np.array([[0.7, 0.3], [0.4, 0.6]]),
            "W": np.array([[0.6, 0.4], [0.25, 0.75]]),
            "Y": np.array([[0.9, 0.1], [0.6, 0.4], [0.5, 0.5], [0.2, 0.8]]),
        },
        sensitive="S",
        intervention="V",
        target="Y",
        target_values=np.array([0.0, 1.0]),
    )
    arms = [
        Arm(0, model.cpts["V"].copy()),
        Arm(1, np.array([[0.2, 0.8], [0.9, 0.1]])),
    ]
    return model, arms


def random_instance(rng: np.random.Generator, floor: float = 0.02) -> Instance:
    """A random enumerable instance: <= 6 nodes, supports <= 4, K <= 4 arms.

    All tables are bounded away from zero so importance ratios stay finite.
    """
    n_extra = int(rng.integers(0, 4))
    names = ["S"] + [f"X{i}" for i in range(n_extra)] + ["V", "Y"]
    cards = {"S": 2}
    for x in names[1:]:
        cards[x] = int(rng.integers(2, 5))
    parents: dict[str, tuple[str, ...]] = {"S": ()}
    for i, x in enumerate(names[1:], start=1):
        before = names[:i]
        k = int(rng.integers(0, min(len(before), 3) + 1))
        if x == "Y" and k == 0 and len(before) > 0:
            k = 1
        picks = sorted(rng.choice(len(before), size=k, replace=False).tolist())
        ps = [before[j] for j in picks]
        if x == "Y" and "V" not in ps and rng.random() < 0.7:
            ps = sorted(set(ps + ["V"]), key=names.index)
        parents[x] = tuple(ps)

    def random_table(n_rows: int, card: int) -> np.ndarray:
        t = rng.dirichlet(np.full(card, 1.5), size=n_rows) + floor
        return t / t.sum(axis=1, keepdims=True)

    cpts = {}
    for x in names:
        n_rows = 1
        for p in parents[x]:
            n_rows *= cards[p]
        cpts[x] = random_table(n_rows, cards[x])

    card_y = cards["Y"]
    model = CausalModel(
        nodes=tuple(names),
        cards=cards,
        parents=parents,
        cpts=cpts,
        sensitive="S",
        intervention="V",
        target="Y",
        target_values=np.arange(card_y) / (card_y - 1),
    )
    n_rows_v = model.n_rows("V")
    n_arms = int(rng.integers(2, 5))
    arms = tuple(Arm(k, random_table(n_rows_v, cards["V"])) for k in range(n_arms))
    return Instance(model=model, arms=arms, name="random")


def liver_experiment(n_arms: int) -> Instance:
    return build_network_experiment(
        liver_network(), "fibrosis", "sex", "carcinoma", n_arms=n_arms, seed=0, fairness_eps=0.2
    )


BENCH_CONFIGS = {
    "synth-k30": SyntheticConfig(
        n_arms=30, support=20, seed=5, reward_gap_band=(0.02, 0.06), fairness_gap_band=(1.93, 1.99)),
    "band-k5": SyntheticConfig(
        n_arms=5, support=6, seed=4, fairness_eps=0.5, fairness_gap_band=(0.3, 0.45),
        reward_gap_band=(0.3, 0.45), divergence_band=(10.0, 50.0)),
}

BENCH_INSTANCES = {
    "synth-k30": lambda: generate_synthetic(BENCH_CONFIGS["synth-k30"]),
    "liver-k10": lambda: liver_experiment(10),
    "band-k5": lambda: generate_synthetic(BENCH_CONFIGS["band-k5"]),
}
"""Builders of the instances of the three benchmark workloads."""


def binom_row(m: int, p: float) -> np.ndarray:
    """Binomial(m-1, p) pmf over {0..m-1} for one scalar ``p``, coefficients from scipy's gammaln."""
    v = np.arange(m)
    log_gamma = gammaln(np.arange(1, m + 1))
    log_coef = log_gamma[m - 1] - log_gamma - log_gamma[::-1]
    return np.exp(log_coef + v * np.log(p) + (m - 1 - v) * np.log1p(-p))


def scalar_g(f: np.ndarray):
    """g(p) = E_binom(p)[f] as a scalar function, one 1-d dot product per call."""
    return lambda p: float(binom_row(len(f), p) @ f)


def _reference_invert_g(g, bracket: tuple[float, float], target: float) -> float:
    lo, hi = bracket
    if not lo < target < hi:
        raise GenerationFailed("inversion precondition broken: a g-level lies outside g's range")
    return brentq(lambda p: g(p) - target, synth._PARAM_LO, synth._PARAM_HI, xtol=1e-14)


def _reference_m_to_deployed(deployed: np.ndarray, table: np.ndarray) -> float:
    mass = synth._P_S[:, None] * deployed
    at = mass > 0.0
    return float(_outcome_cutoff(np.log(mass[at]), table[at] / deployed[at]))


def _reference_inside(band: tuple[float, float], values, slack: float = 0.0) -> bool:
    lo, hi = band
    return bool(np.all(values > lo - slack) and np.all(values < hi + slack))


def reference_generate_synthetic(config: SyntheticConfig) -> tuple[Instance, int]:
    """``generate_synthetic`` one attempt at a time, and the index of the attempt it returns.

    Each attempt draws with ``rng.choice``, then builds its arms one at a time:
    both parameters inverted by ``scipy.optimize.brentq`` on the scalar g,
    the table built and, under a divergence band, ``M[k, 0]`` prefiltered at
    once, so the attempt ends at its first failing arm.  A target outside g's
    range or an oracle report that misses the construction raises, as the
    generator's preconditions do.  The reference for the chunked generator's
    instance and for its ``GenerationFailed`` message.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    K, m = config.n_arms, config.support
    scale = 2.0 * config.epsilon_param - 1.0
    glo, ghi = config.reward_gap_band
    blo, bhi = config.fairness_gap_band
    eps = config.fairness_eps
    band = config.divergence_band
    rejected = dict.fromkeys(("level window", "band prefilter", "exact band", "validation"), 0)
    problem = None

    for attempt in range(config.max_attempts):
        if config.f_values is not None:
            f = np.asarray(config.f_values, dtype=float)
        else:
            f = np.sort(rng.uniform(0.0, 1.0, size=m))
        g = scalar_g(f)

        ids = np.arange(K)
        if config.n_unfair == K:
            unfair = list(ids)
        elif config.n_unfair == 0:
            unfair = []
        else:
            unfair = sorted(rng.choice(ids[1:], size=config.n_unfair, replace=False))
        fair = [k for k in ids if k not in set(unfair)]
        k_star = int(rng.choice(fair)) if fair else None

        margins = rng.uniform(blo, bhi, size=K)
        for k in fair:
            margins[k] = min(margins[k], eps)
        pinned = unfair[0] if unfair else next(k for k in ids if k != k_star)
        margins[pinned] = blo
        cluster = band is not None and attempt % 2 == 0
        shared = rng.choice((-1.0, 1.0)) if cluster else None
        zeta = np.empty(K)
        for k in ids:
            level = eps + margins[k] if k in set(unfair) else eps - margins[k]
            zeta[k] = level * (shared if shared is not None else rng.choice((-1.0, 1.0)))

        delta = np.zeros(K)
        others = [k for k in fair if k != k_star]
        if others:
            delta_vals = rng.uniform(glo, ghi, size=len(others))
            delta_vals[0] = glo
            for k, d in zip(others, delta_vals):
                delta[k] = d
        for i, k in enumerate(unfair):
            delta[k] = -glo if i == 0 else rng.uniform(glo, ghi)
        if k_star is None:
            delta[unfair[0]] = 0.0

        z = zeta / scale
        shift = delta / scale
        lo_req = np.max(f[0] + np.abs(z) / 2.0 + synth._LEVEL_PAD + shift)
        hi_req = np.min(f[-1] - np.abs(z) / 2.0 - synth._LEVEL_PAD + shift)
        if not lo_req < hi_req:
            rejected["level window"] += 1
            continue
        a_star = rng.uniform(lo_req, hi_req)
        levels = a_star - shift

        bracket = g(synth._PARAM_LO), g(synth._PARAM_HI)
        arms = []
        for k in range(K):
            c = _reference_invert_g(g, bracket, levels[k] + z[k] / 2.0)
            d = _reference_invert_g(g, bracket, levels[k] - z[k] / 2.0)
            table = np.vstack([binom_row(m, c), binom_row(m, d)])
            table = table / table.sum(axis=1, keepdims=True)
            if k > 0 and band is not None and not _reference_inside(
                band, _reference_m_to_deployed(arms[0].table, table), synth._BAND_SLACK * abs(band[1])
            ):
                rejected["band prefilter"] += 1
                break
            cost = 0.0 if (config.cheap_arm and k == 0) else 1.0
            arms.append(Arm(k, table, cost, cost, cost))
        if len(arms) < K:
            continue
        model = synth._build_model(config, f, arms[0].table.copy())
        if band is not None:
            div = DivergenceSet.exact(model, arms)
            if not all(_reference_inside(band, c[1:, 0]) for c in (div.m, div.d_ssp, div.d_sps)):
                rejected["exact band"] += 1
                continue
        validation = validate_model(model, arms)
        if not validation.ok:
            rejected["validation"] += 1
            problem = validation.problems[0]
            continue

        instance = Instance(
            model=model,
            arms=arms,
            name=f"synthetic-K{K}-m{m}-seed{config.seed}",
            cheap_arm_constraint=config.cheap_arm,
            observed=["S", "V", "Y"],
            fairness_eps=eps,
        )
        report = oracle_report(instance, eps)
        gaps = [report["mu"][k_star] - report["mu"][k] for k in fair if k != k_star]
        dist = [
            min(abs(abs(report["zeta_ssp"][k]) - eps), abs(abs(report["zeta_sps"][k]) - eps))
            for k in range(K)
        ]
        tol = synth._ORACLE_TOL
        broken = [name for name, holds in (
            ("fair set", set(report["fair"]) == set(fair)),
            ("best fair arm", report["best_fair"] == k_star),
            ("gap band", all(glo - tol <= gap <= ghi + tol for gap in gaps)),
            ("smallest gap", not gaps or abs(min(gaps) - glo) <= tol),
            ("distance band", all(blo - tol <= d_ <= bhi + tol for d_ in dist)),
            ("xi_star", abs(report["xi_star"] - blo) <= tol),
        ) if not holds]
        if broken:
            raise GenerationFailed(f"oracle precondition broken: {', '.join(broken)}")
        return instance, attempt

    counts = ", ".join(f"{check} {n}" for check, n in rejected.items())
    last = f"; the last validation problem: {problem}" if problem else ""
    raise GenerationFailed(
        f"no instance satisfied the configured bands in {config.max_attempts} attempts"
        f" (draws rejected per check: {counts}{last})"
    )


def _joint(model: CausalModel, arm: Arm | None, force_s: int | None = None):
    """Yield (probability, assignment dict) over the full joint, pure python."""
    order = model.topological_order()
    for combo in itertools.product(*(range(model.cards[x]) for x in order)):
        values = dict(zip(order, combo))
        if force_s is not None and values[model.sensitive] != force_s:
            continue
        p = 1.0
        for x in order:
            if force_s is not None and x == model.sensitive:
                continue
            table = arm.table if (arm is not None and x == model.intervention) else model.cpts[x]
            row = 0
            for parent, stride in zip(model.parents[x], model.row_strides(x)):
                row += values[parent] * stride
            p *= table[row, values[x]]
        yield p, values


def brute_mean(model: CausalModel, arm: Arm) -> float:
    return sum(p * model.target_values[v[model.target]] for p, v in _joint(model, arm))


def _brute_ratio(model: CausalModel, arm: Arm, values: dict, num_s: int, den_s: int) -> float:
    ratio = 1.0
    for x in model.children(model.sensitive):
        table = arm.table if x == model.intervention else model.cpts[x]
        strides = model.row_strides(x)
        ps = model.parents[x]
        s_at = ps.index(model.sensitive)
        row_num = sum(
            (num_s if i == s_at else values[p]) * st for i, (p, st) in enumerate(zip(ps, strides))
        )
        row_den = sum(
            (den_s if i == s_at else values[p]) * st for i, (p, st) in enumerate(zip(ps, strides))
        )
        ratio *= table[row_num, values[x]] / table[row_den, values[x]]
    return ratio


def brute_fairness(model: CausalModel, arm: Arm, direction: str) -> float:
    """Counterfactual gap via the reweighted do(evidence) expectation."""
    cf, ev = (0, 1) if direction == "ssp" else (1, 0)
    acc = 0.0
    for p, values in _joint(model, arm, force_s=ev):
        y = model.target_values[values[model.target]]
        acc += p * y * (_brute_ratio(model, arm, values, cf, ev) - 1.0)
    return acc


def brute_law(model: CausalModel, arm: Arm, regime: Regime) -> np.ndarray:
    """``P(cell | arm, regime)`` over the full joint, barren nodes included, by ``reference_cell_code``."""
    _, n_cells = reference_cell_code(model, dict.fromkeys(model.nodes, 0))
    law = np.zeros(n_cells)
    for p, values in _joint(model, arm, force_s=regime.forced_value):
        law[reference_cell_code(model, values)[0]] += p
    return law


def clipped_outcome_expectation(model: CausalModel, arms, k: int, j: int, eps: float, m_kj: float) -> float:
    """Exact E_j[Y * w_kj * 1{w_kj <= 2 ln(2/eps) m_kj}] by enumeration."""
    thr = 2.0 * math.log(2.0 / eps) * m_kj
    acc = 0.0
    for p, values in _joint(model, arms[j]):
        if p == 0.0:
            continue
        v = model.intervention
        row = sum(values[q] * st for q, st in zip(model.parents[v], model.row_strides(v)))
        w = arms[k].table[row, values[v]] / arms[j].table[row, values[v]]
        if w <= thr:
            acc += p * model.target_values[values[model.target]] * w
    return acc


def clipped_fairness_expectation(
    model: CausalModel, arms, k: int, j: int, eps: float, d_kj: float, direction: str
) -> float:
    """Exact forced-regime E_j[Y * u_kj * 1{|u_kj| <= 2 ln(2/eps) d_kj}] by enumeration."""
    cf, ev = (0, 1) if direction == "ssp" else (1, 0)
    thr = 2.0 * math.log(2.0 / eps) * d_kj
    acc = 0.0
    for p, values in _joint(model, arms[j], force_s=ev):
        if p == 0.0:
            continue
        v = model.intervention
        row = sum(values[q] * st for q, st in zip(model.parents[v], model.row_strides(v)))
        w = arms[k].table[row, values[v]] / arms[j].table[row, values[v]]
        u = w * (_brute_ratio(model, arms[k], values, cf, ev) - 1.0)
        if abs(u) <= thr:
            acc += p * model.target_values[values[model.target]] * u
    return acc


def marginal_rows(model: CausalModel, node: str) -> np.ndarray:
    """Exact marginal over the parent assignment rows of ``node``, by enumeration.

    Arms only rewrite the conditional of the intervention node, so the
    marginal of its parents is arm independent.
    """
    out = np.zeros(model.n_rows(node), dtype=float)
    ps = model.parents[node]
    if not ps:
        out[0] = 1.0
        return out
    cards = model.parent_cards(node)
    for probs, values in enumerate_joint(model, None, ps):
        np.add.at(out, encode_rows(values, ps, cards, probs.shape[0]), probs)
    return out


def _outcome_means(model: CausalModel, arms) -> list[float]:
    """Mean encoded target value under each arm, by one enumeration of Y's closure for all."""
    acc = [0.0] * len(arms)
    for probs, values in enumerate_arms(model, np.stack([a.table for a in arms]), [model.target]):
        y = model.target_values[values[model.target]]
        for k, p in enumerate(probs):
            acc[k] += float(p @ y)
    return acc


def exact_outcome_mean(model: CausalModel, arm: Arm) -> float:
    """Mean encoded target value under the arm, by enumeration."""
    return _outcome_means(model, [arm])[0]


def direction_values(direction: str) -> tuple[int, int]:
    """Map a direction tag to (counterfactual S value, evidence S value)."""
    if direction == "ssp":
        return S_VALUE, SPRIME_VALUE
    if direction == "sps":
        return SPRIME_VALUE, S_VALUE
    raise ValueError(f"unknown direction {direction!r}")


def attribute_ratio_values(
    model: CausalModel,
    v_table: np.ndarray | None,
    values: dict[str, np.ndarray],
    num_attr: int,
    den_attr: int,
) -> np.ndarray:
    """Product over the children of S of ``P(x | pa, num) / P(x | pa, den)`` at given cells.

    The intervention node's factor comes from ``v_table``, and None leaves it
    out; the cells must carry a value column for S and for every other child
    of S with its parents.
    """
    s = model.sensitive
    n = next(iter(values.values())).shape[0]
    ratio = np.ones(n, dtype=float)
    for x in model.children(s):
        table = v_table if x == model.intervention else model.cpts[x]
        if table is None:
            continue
        rows = model.s_rows(x, encode_rows(values, model.parents[x], model.parent_cards(x), n))
        num = table[rows[num_attr], values[x]]
        den = table[rows[den_attr], values[x]]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio *= num / den
    return ratio


def _fairness_gaps(model: CausalModel, arms, direction: str) -> list[float]:
    """Counterfactual gap of each arm, by one enumeration under the forced evidence attribute."""
    cf, ev = direction_values(direction)
    needed = [model.target, *model.children(model.sensitive)]
    acc = [0.0] * len(arms)
    for probs, values in enumerate_arms(model, np.stack([a.table for a in arms]), needed, ev):
        for k, (arm, p) in enumerate(zip(arms, probs)):
            mask, sub = p > 0.0, values
            if not mask.all():
                p, sub = p[mask], {x: v[mask] for x, v in values.items()}
            if p.size:
                ratio = attribute_ratio_values(model, arm.table, sub, cf, ev)
                acc[k] += float(p @ (model.target_values[sub[model.target]] * (ratio - 1.0)))
    return acc


def exact_fairness(model: CausalModel, arm: Arm, direction: str) -> float:
    """Counterfactual gap of the arm, by enumeration under the forced evidence attribute."""
    return _fairness_gaps(model, [arm], direction)[0]


def _reference_fairness_cells(model: CausalModel, arm_i: Arm, arm_j: Arm, direction: str):
    """Per forced regime, cells ``(probs under arm i, signed weight w_ij)`` of one pair."""
    num, den = direction_values(direction)
    needed = [model.intervention, *model.children(model.sensitive)]
    v = model.intervention
    strides = model.row_strides(v)
    out = []
    for forced in (0, 1):
        probs_parts, w_parts = [], []
        for probs, values in enumerate_joint(model, arm_i, needed, force_s=forced):
            mask = probs > 0.0
            sub = {x: col[mask] for x, col in values.items()}
            rows = np.zeros(int(mask.sum()), dtype=np.int64)
            for p, st in zip(model.parents[v], strides):
                rows += sub[p] * st
            w_v = arm_i.table[rows, sub[v]] / arm_j.table[rows, sub[v]]
            ratio = attribute_ratio_values(model, arm_i.table, sub, num, den)
            probs_parts.append(probs[mask])
            w_parts.append(w_v * (ratio - 1.0))
        out.append((np.concatenate(probs_parts), np.concatenate(w_parts)))
    return out


def reference_divergence_set(model: CausalModel, arms) -> DivergenceSet:
    """Exact ``M``, ``D_ssp`` and ``D_sps`` computed one (target, source) pair at a time.

    Each fairness entry enumerates the joint afresh for its own pair, and each
    outcome entry reduces its own cells, so the vectorized matrices of
    ``DivergenceSet.exact`` are checked against a separate code path.
    """
    k = len(arms)
    marg = marginal_rows(model, model.intervention)
    m = np.ones((k, k), dtype=float)
    for j in range(k):
        pj = marg[:, None] * arms[j].table
        mask = pj > 0.0
        for i in range(k):
            if i == j:
                continue
            w = arms[i].table[mask] / arms[j].table[mask]
            pos = w > 0.0
            m[i, j] = 1.0 + float(
                logsumexp(np.log(pj[mask][pos]) + np.log(w[pos]) + w[pos] - 1.0)
            )
    d = {}
    for direction in ("ssp", "sps"):
        d[direction] = np.zeros((k, k), dtype=float)
        for i in range(k):
            for j in range(k):
                parts = [
                    logsumexp(np.log(probs) + np.abs(w))
                    for probs, w in _reference_fairness_cells(model, arms[i], arms[j], direction)
                ]
                d[direction][i, j] = float(np.logaddexp(*parts))
    return DivergenceSet(m=m, d_ssp=d["ssp"], d_sps=d["sps"])


def f1(x):
    """Convex generator ``x * exp(x - 1) - 1`` with ``f1(1) = 0``."""
    x = np.asarray(x, dtype=float)
    out = x * np.exp(x - 1.0) - 1.0
    return out if out.ndim else float(out)


def conditional_f_divergence(model: CausalModel, arm_i: Arm, arm_j: Arm) -> float:
    """Exact ``E_j[f1(P_i / P_j)]`` over the intervention context."""
    marg = marginal_rows(model, model.intervention)
    pj = marg[:, None] * arm_j.table
    mask = pj > 0.0
    return float(pj[mask] @ f1(arm_i.table[mask] / arm_j.table[mask]))


def _min_tail_quantile(weights: np.ndarray, probs: np.ndarray, bound: float) -> float:
    """Smallest support value ``q`` with ``P(W > q) <= bound``, up to 1e-12 of mass."""
    order = np.argsort(weights, kind="stable")
    w, p = weights[order], probs[order]
    uniq, start = np.unique(w, return_index=True)
    ends = np.r_[start[1:], w.shape[0]] - 1
    cum = np.cumsum(p)
    tails = cum[-1] - cum[ends]
    ok = tails <= bound + 1e-12
    return float(uniq[int(np.argmax(ok))])


def empirical_quantile_eta(model: CausalModel, arm_i: Arm, arm_j: Arm, eps: float) -> float:
    """Smallest ``eta`` with ``P_i(P_i / P_j > eta) <= eps / 2``."""
    if not 0.0 < eps < 2.0:
        raise ValueError("eps must lie in (0, 2)")
    marg = marginal_rows(model, model.intervention)
    pi = marg[:, None] * arm_i.table
    mask = (marg[:, None] * arm_j.table > 0.0) & (pi > 0.0)
    return _min_tail_quantile(arm_i.table[mask] / arm_j.table[mask], pi[mask], eps / 2.0)


def empirical_quantile_gamma(
    model: CausalModel, arm_i: Arm, arm_j: Arm, eps: float, direction: str
) -> float:
    """Smallest ``gamma`` whose two forced tail masses of ``|w_ij|`` sum below ``eps / 2``."""
    if not 0.0 < eps < 2.0:
        raise ValueError("eps must lie in (0, 2)")
    cells = _reference_fairness_cells(model, arm_i, arm_j, direction)
    weights = np.concatenate([np.abs(w) for _, w in cells])
    probs = np.concatenate([p for p, _ in cells])
    return _min_tail_quantile(weights, probs, eps / 2.0)


def transport_weight(cells: Cells, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """``P_target(v | pa) / P_source(v | pa)`` at every entry of ``cells``.

    ``targets`` and ``sources`` are intervention tables or stacks of them;
    their leading axes broadcast, and the entries run along the last axis.
    """
    return targets[..., cells.v_row, cells.v_val] / sources[..., cells.v_row, cells.v_val]


def counterfactual_weight(
    cells: Cells, targets: np.ndarray, sources: np.ndarray, direction: str
) -> np.ndarray:
    """Signed weight ``w * (ratio - 1)`` whose mean over forced pulls is the counterfactual gap.

    ``w`` is the transport weight and ``ratio`` the product over the children
    of S of ``P(x | pa, s) / P(x | pa, s')`` under the target, inverted for
    ``"sps"``.  ``"ssp"`` (counterfactual s, evidence s') reads pulls forced to
    s', ``"sps"`` pulls forced to s; the caller supplies matching cells.
    """
    if direction not in ("ssp", "sps"):
        raise ValueError(f"unknown direction {direction!r}")
    ratio = (
        cells.child_ratio
        * targets[..., cells.v_row_s, cells.v_val]
        / targets[..., cells.v_row_sp, cells.v_val]
    )
    if direction == "sps":
        ratio = 1.0 / ratio
    return transport_weight(cells, targets, sources) * (ratio - 1.0)


def take(cells: Cells, codes: np.ndarray) -> Cells:
    """The fields of the cells ``codes`` of ``cells``, in that order."""
    return Cells(*(getattr(cells, f.name)[codes] for f in fields(Cells)))


@dataclass
class CellBatch(BatchSamples):
    """A drawn batch together with the ``Cells`` table its counts index, so that
    its pulls can be read one by one."""

    cells: Cells

    @property
    def n_cells(self) -> int:
        return self.cells.y.size


def sample_block(
    model: CausalModel, arm: Arm, regime: Regime, n: int, rng: np.random.Generator
) -> CellBatch:
    """``n`` pulls of ``arm`` under ``regime``: a count matrix whose one entry sits in
    row ``arm.index``, drawn from that arm's own cell laws."""
    sizes = np.zeros((arm.index + 1, len(REGIMES)), dtype=np.int64)
    sizes[arm.index, REGIMES.index(regime)] = n
    tables = sampling.instance_tables(model, [arm])
    laws = np.broadcast_to(tables.laws, sizes.shape + tables.laws.shape[2:])
    batch = sampling.sample_batch(laws, sizes, rng)
    return CellBatch(batch.drawn, batch.counts, tables.cells)


def cell_codes(batch: CellBatch) -> np.ndarray:
    """The cell code of every pull of ``batch``, entry after entry, ascending within an entry."""
    codes = np.tile(np.arange(batch.n_cells), len(batch.counts))
    return np.repeat(codes, batch.counts.ravel())


def pull_fields(batch: CellBatch) -> Cells:
    """The fields of every pull of ``batch``, in the order of ``cell_codes``."""
    return take(batch.cells, cell_codes(batch))


def mc_outcome_mean(model: CausalModel, arm: Arm, draws: int, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the arm mean from observational pulls."""
    batch = sample_block(model, arm, Regime.OBSERVATIONAL, draws, rng)
    return float(pull_fields(batch).y.mean())


def mc_fairness(
    model: CausalModel, arm: Arm, direction: str, draws: int, rng: np.random.Generator
) -> float:
    """Monte Carlo estimate of the counterfactual gap from forced pulls of the arm itself."""
    regime = Regime.FORCE_SPRIME if direction == "ssp" else Regime.FORCE_S
    pulls = pull_fields(sample_block(model, arm, regime, draws, rng))
    return float((pulls.y * counterfactual_weight(pulls, arm.table, arm.table, direction)).mean())


def linprog_maxmin(problem) -> Allocation:
    """``solve_maxmin`` through ``scipy.optimize.linprog``: the same epigraph LP,
    built row by row, and the same clean-up of the fractions and of v*."""
    K = problem.n_arms
    n_var = 3 * K + 1
    rows, ubs = [], []
    families = [(problem.recip_m, 0)] if problem.include_outcome else []
    if problem.include_fairness:
        families += [(problem.recip_dsps, K), (problem.recip_dssp, 2 * K)]
    for recip, offset in families:
        for k in problem.active:
            row = np.zeros(n_var)
            row[offset : offset + K] = -recip[k]
            row[-1] = 1.0
            rows.append(row)
            ubs.append(0.0)
    for coeffs, ub in ((problem.costs.reshape(-1), problem.budget), *problem.extra_constraints):
        row = np.zeros(n_var)
        row[: 3 * K] = coeffs
        rows.append(row)
        ubs.append(ub)
    a_eq = np.zeros((1, n_var))
    a_eq[0, : 3 * K] = 1.0
    bounds = []
    for enabled in (problem.include_outcome, problem.include_fairness, problem.include_fairness):
        bounds.extend([(0.0, None) if enabled else (0.0, 0.0)] * K)
    bounds.append((0.0, None))
    objective = np.zeros(n_var)
    objective[-1] = -1.0
    res = linprog(objective, A_ub=np.array(rows), b_ub=np.array(ubs), A_eq=a_eq,
                  b_eq=np.array([1.0]), bounds=bounds, method="highs")
    if res.status == 2:
        raise Infeasible("allocation LP has no feasible point")
    assert res.status == 0, res.message
    nu = np.clip(res.x[: 3 * K], 0.0, None)
    if nu.sum() > 0.0:
        nu = nu / nu.sum()
    nu_y, nu_s, nu_sp = nu[:K], nu[K : 2 * K], nu[2 * K :]
    idx = list(problem.active)
    values = [(recip @ nu[offset : offset + K])[idx] for recip, offset in families]
    return Allocation(nu_y=nu_y, nu_s=nu_s, nu_sp=nu_sp, v_star=float(min(np.min(v) for v in values)))


def maxmin_vertex_value(problem, feas_tol: float = 1e-7) -> float | None:
    """Exact max-min LP value by brute-force vertex enumeration.

    Independent of any LP solver: every basic feasible solution of the
    epigraph polytope is enumerated and the best objective kept.  Returns
    None when no combination is feasible.  Only viable for a handful of
    arms.
    """
    K = problem.n_arms
    n = 3 * K + 1

    rows: list[np.ndarray] = []
    ubs: list[float] = []

    def precision(recip: np.ndarray, offset: int) -> None:
        for k in problem.active:
            row = np.zeros(n)
            row[offset : offset + K] = -recip[k]
            row[-1] = 1.0
            rows.append(row)
            ubs.append(0.0)

    if problem.include_outcome:
        precision(problem.recip_m, 0)
    if problem.include_fairness:
        precision(problem.recip_dsps, K)
        precision(problem.recip_dssp, 2 * K)
    budget_row = np.zeros(n)
    budget_row[: 3 * K] = problem.costs.reshape(-1)
    rows.append(budget_row)
    ubs.append(problem.budget)
    for coeffs, ub in problem.extra_constraints:
        row = np.zeros(n)
        row[: 3 * K] = coeffs
        rows.append(row)
        ubs.append(ub)
    for i in range(n):
        row = np.zeros(n)
        row[i] = -1.0
        rows.append(row)
        ubs.append(0.0)

    equalities = [(np.r_[np.ones(3 * K), 0.0], 1.0)]
    if not problem.include_outcome:
        for i in range(K):
            equalities.append((np.eye(n)[i], 0.0))
    if not problem.include_fairness:
        for i in range(K, 3 * K):
            equalities.append((np.eye(n)[i], 0.0))

    a_ineq = np.array(rows)
    b_ineq = np.array(ubs)
    need = n - len(equalities)
    eq_a = np.array([row for row, _ in equalities])
    eq_b = np.array([val for _, val in equalities])

    combos = list(itertools.combinations(range(len(rows)), need))
    stacked = np.empty((len(combos), n, n))
    stacked[:, : len(equalities), :] = eq_a
    rhs = np.empty((len(combos), n))
    rhs[:, : len(equalities)] = eq_b
    for c, combo in enumerate(combos):
        stacked[c, len(equalities) :, :] = a_ineq[list(combo)]
        rhs[c, len(equalities) :] = b_ineq[list(combo)]

    best = None
    dets = np.linalg.det(stacked)
    solvable = np.abs(dets) > 1e-12
    if not np.any(solvable):
        return None
    xs = np.linalg.solve(stacked[solvable], rhs[solvable][..., None])[..., 0]
    feasible = np.all(xs @ a_ineq.T <= b_ineq + feas_tol, axis=1)
    if not np.any(feasible):
        return None
    return float(np.max(xs[feasible, -1]))


class ZeroDenominator(FairCBError):
    """An importance ratio hit a zero probability in the source measure."""


class WrongRegime(FairCBError):
    """A sample from the wrong regime was fed to a counterfactual weight."""


class NoSamples(FairCBError):
    """An estimator was asked for a value with an empty pool."""


@dataclass(frozen=True)
class Sample:
    """One pull: the observer sees the intervention context, the children of S and Y.

    ``v_parents`` lists the realized parent values of the intervention node in
    declared order (the forced S value appears there when S is a parent) and
    ``s_child_contexts`` holds ``(child, parent values without S, child value)``
    for every child of the sensitive node.  ``v_row``, ``v_row_s``,
    ``v_row_sp`` and ``child_ratio`` cache what the importance weights need:
    the realized table row, the same row with the S slot set to s and to s',
    and the product over the non intervention children of S of
    ``P(x | pa, s) / P(x | pa, s')``.  ``cell`` is the pull's code among
    ``n_cells`` cells, as ``reference_cell_code`` computes it.
    """

    arm: int
    regime: Regime
    s_value: int
    v_parents: tuple[int, ...]
    v_value: int
    s_child_contexts: tuple[tuple[str, tuple[int, ...], int], ...]
    outcome: float
    v_row: int
    v_row_s: int
    v_row_sp: int
    child_ratio: float
    cell: int
    n_cells: int


def reference_cell_code(model: CausalModel, values: dict):
    """``(cell, n_cells)`` of the read-node values in ``values`` (ints or arrays), by Horner's rule.

    The read nodes are V's parents, V, Y, then each child of S other than V
    followed by its parents, each at its first place in that list.
    """
    s, v = model.sensitive, model.intervention
    read = [*model.parents[v], v, model.target]
    for x in model.children(s):
        if x != v:
            read += [x, *model.parents[x]]
    cell, n_cells = 0, 1
    for x in dict.fromkeys(read):
        cell = cell * model.cards[x] + values[x]
        n_cells *= model.cards[x]
    return cell, n_cells


def _row(model: CausalModel, node: str, values: dict, s_value: int | None = None) -> int:
    """Table row of ``node`` at ``values``, with the S slot overridden by ``s_value``."""
    row = 0
    for p, st in zip(model.parents[node], model.row_strides(node)):
        v = s_value if (p == model.sensitive and s_value is not None) else values[p]
        row += v * st
    return row


def sample(model: CausalModel, arm: Arm, regime: Regime, rng: np.random.Generator) -> Sample:
    """Draw a single pull node by node, with the full observed contexts spelled out.

    It consumes one uniform per unforced node in topological order, the same
    draws as a one-pull ``reference_sample_batch``.
    """
    values: dict[str, int] = {}
    forced = regime.forced_value
    for node in model.topological_order():
        if node == model.sensitive and forced is not None:
            values[node] = forced
            continue
        table = arm.table if node == model.intervention else model.cpts[node]
        cum = np.cumsum(table[_row(model, node, values)])
        values[node] = min(int((rng.random() > cum).sum()), table.shape[1] - 1)
    s, v = model.sensitive, model.intervention
    child_ratio = 1.0
    contexts = []
    for x in model.children(s):
        contexts.append((x, tuple(values[p] for p in model.parents[x] if p != s), values[x]))
        if x != v:
            cpt = model.cpts[x]
            child_ratio *= (
                cpt[_row(model, x, values, S_VALUE), values[x]]
                / cpt[_row(model, x, values, SPRIME_VALUE), values[x]]
            )
    cell, n_cells = reference_cell_code(model, values)
    return Sample(
        arm=arm.index,
        regime=regime,
        s_value=values[s],
        v_parents=tuple(values[p] for p in model.parents[v]),
        v_value=values[v],
        s_child_contexts=tuple(contexts),
        outcome=float(model.target_values[values[model.target]]),
        v_row=_row(model, v, values),
        v_row_s=_row(model, v, values, S_VALUE),
        v_row_sp=_row(model, v, values, SPRIME_VALUE),
        child_ratio=float(child_ratio),
        cell=cell,
        n_cells=n_cells,
    )


@dataclass(frozen=True)
class Pulls:
    """A block of pulls of one arm under one regime, field by field: each
    pull's cell code among ``n_cells`` and its six pull fields."""

    arm: int
    regime: Regime
    cell: np.ndarray
    n_cells: int
    fields: Cells


def as_pulls(samples: list[Sample]) -> Pulls:
    """Pack single pulls of one arm under one regime into a block."""
    return Pulls(
        arm=samples[0].arm,
        regime=samples[0].regime,
        cell=np.array([s.cell for s in samples], dtype=np.int64),
        n_cells=samples[0].n_cells,
        fields=Cells(
            y=np.array([s.outcome for s in samples]),
            v_row=np.array([s.v_row for s in samples]),
            v_val=np.array([s.v_value for s in samples]),
            v_row_s=np.array([s.v_row_s for s in samples]),
            v_row_sp=np.array([s.v_row_sp for s in samples]),
            child_ratio=np.array([s.child_ratio for s in samples]),
        ),
    )


def reference_sample_batch(
    model: CausalModel, arm: Arm, regime: Regime, n: int, rng: np.random.Generator
) -> Pulls:
    """``n`` pulls by a walk over every node in topological order, barren ones included.

    Each unforced node draws its ``n`` uniforms when the walk reaches it.
    This is the ancestral reference of the cell-law sampler: its cell
    frequencies must follow the laws, and each of its pulls must carry the
    fields that the model's ``Cells`` table holds for its cell.
    """
    values: dict[str, np.ndarray] = {}
    forced = regime.forced_value

    def rows(node: str) -> np.ndarray:
        out = np.zeros(n, dtype=np.int64)
        for p, st in zip(model.parents[node], model.row_strides(node)):
            out += values[p] * st
        return out

    for node in model.topological_order():
        if node == model.sensitive and forced is not None:
            values[node] = np.full(n, forced, dtype=np.int64)
            continue
        table = arm.table if node == model.intervention else model.cpts[node]
        cum = np.cumsum(table[rows(node)], axis=1)
        u = rng.random(n)
        values[node] = np.minimum((u[:, None] > cum).sum(axis=1), table.shape[1] - 1)

    s, v = model.sensitive, model.intervention
    v_row = rows(v)
    v_row_s, v_row_sp = v_row, v_row
    if s in model.parents[v]:
        s_stride = model.row_strides(v)[model.parents[v].index(s)]
        base = v_row - values[s] * s_stride
        v_row_s, v_row_sp = base + S_VALUE * s_stride, base + SPRIME_VALUE * s_stride
    child_ratio = np.ones(n, dtype=float)
    for x in model.children(s):
        if x == v:
            continue
        s_stride = model.row_strides(x)[model.parents[x].index(s)]
        base = rows(x) - values[s] * s_stride
        cpt, xv = model.cpts[x], values[x]
        child_ratio *= cpt[base + S_VALUE * s_stride, xv] / cpt[base + SPRIME_VALUE * s_stride, xv]
    cell, n_cells = reference_cell_code(model, values)
    return Pulls(
        arm=arm.index,
        regime=regime,
        cell=np.asarray(cell, dtype=np.int64),
        n_cells=n_cells,
        fields=Cells(
            y=model.target_values[values[model.target]],
            v_row=v_row,
            v_val=values[v].astype(np.int64),
            v_row_s=v_row_s,
            v_row_sp=v_row_sp,
            child_ratio=child_ratio,
        ),
    )


class ReferencePool:
    """Every pull of every source arm under every regime, kept pull by pull."""

    def __init__(self, n_arms: int):
        self.n_arms = n_arms
        self._blocks: dict[tuple[int, Regime], list[Cells]] = {}

    def add(self, batch: CellBatch) -> None:
        """Unpack each drawn entry's counts into one pull per count, in cell order."""
        for arm, r, counts in zip(*batch.drawn, batch.counts):
            if not 0 <= arm < self.n_arms:
                raise ValueError(f"arm index {arm} out of range")
            cell = np.repeat(np.arange(batch.n_cells), counts)
            self._blocks.setdefault((int(arm), REGIMES[r]), []).append(take(batch.cells, cell))

    def packed(self, arm: int, regime: Regime) -> Cells | None:
        """The fields of every pull of ``arm`` under ``regime``, pull by pull,
        or None when there are none."""
        pulls = self._blocks.get((arm, regime))
        if not pulls:
            return None
        return Cells(*(np.concatenate([getattr(p, f.name) for p in pulls]) for f in fields(Cells)))


def importance_weight_outcome(sample: Sample, from_arm: Arm, to_arm: Arm) -> float:
    """Ratio that reweights an outcome sample of ``from_arm`` onto ``to_arm``."""
    denom = float(from_arm.table[sample.v_row, sample.v_value])
    if denom <= 0.0:
        raise ZeroDenominator(
            f"arm {from_arm.index} puts zero mass on its own sample at row {sample.v_row}"
        )
    return float(to_arm.table[sample.v_row, sample.v_value]) / denom


def _attribute_ratio(sample: Sample, to_arm: Arm) -> float:
    """Product over the children of S of P(x | pa, s) / P(x | pa, s') under ``to_arm``."""
    num = float(to_arm.table[sample.v_row_s, sample.v_value])
    den = float(to_arm.table[sample.v_row_sp, sample.v_value])
    if den <= 0.0:
        raise ZeroDenominator(f"arm {to_arm.index} has empty s' support at the sampled value")
    return sample.child_ratio * num / den


def importance_weight_fairness(
    sample: Sample,
    from_arm: Arm,
    to_arm: Arm,
    direction: str,
) -> float:
    """Signed weight whose mean over forced pulls is the counterfactual gap.

    ``direction`` is ``"ssp"`` for the gap of the counterfactual s against
    evidence s' (needs a pull forced to s') and ``"sps"`` for the reverse
    (needs a pull forced to s).
    """
    if direction not in ("ssp", "sps"):
        raise ValueError(f"unknown direction {direction!r}")
    needed = Regime.FORCE_SPRIME if direction == "ssp" else Regime.FORCE_S
    if sample.regime is not needed:
        raise WrongRegime(f"direction {direction} needs regime {needed.value}, got {sample.regime.value}")
    w = importance_weight_outcome(sample, from_arm, to_arm)
    ratio = _attribute_ratio(sample, to_arm)
    if direction == "ssp":
        return w * (ratio - 1.0)
    if ratio <= 0.0:
        raise ZeroDenominator("attribute ratio vanished on a forced-s pull")
    return w * (1.0 / ratio - 1.0)


def pooled_outcome_estimate(pool: ReferencePool, arms, k: int, eps: float, m: np.ndarray) -> float:
    """Clipped pooled estimate of the mean outcome of arm ``k`` from observational pulls."""
    log_term = 2.0 * math.log(2.0 / eps)
    z = 0.0
    acc = 0.0
    for j in range(pool.n_arms):
        packed = pool.packed(j, Regime.OBSERVATIONAL)
        if packed is None:
            continue
        m_kj = m[k, j]
        z += packed.y.shape[0] / m_kj
        w = arms[k].table[packed.v_row, packed.v_val] / arms[j].table[packed.v_row, packed.v_val]
        kept = w <= log_term * m_kj
        acc += float(np.dot(packed.y[kept], w[kept])) / m_kj
    if z == 0.0:
        raise NoSamples(f"no outcome samples available for arm {k}")
    return acc / z


def pooled_fairness_estimate(
    pool: ReferencePool,
    arms,
    k: int,
    eps: float,
    d: np.ndarray,
    direction: str,
) -> float:
    """Clipped pooled estimate of the counterfactual gap of arm ``k``."""
    if direction not in ("ssp", "sps"):
        raise ValueError(f"unknown direction {direction!r}")
    regime = Regime.FORCE_SPRIME if direction == "ssp" else Regime.FORCE_S
    log_term = 2.0 * math.log(2.0 / eps)
    o = 0.0
    acc = 0.0
    for j in range(pool.n_arms):
        packed = pool.packed(j, regime)
        if packed is None:
            continue
        d_kj = d[k, j]
        o += packed.y.shape[0] / d_kj
        w = arms[k].table[packed.v_row, packed.v_val] / arms[j].table[packed.v_row, packed.v_val]
        ratio = (
            packed.child_ratio
            * arms[k].table[packed.v_row_s, packed.v_val]
            / arms[k].table[packed.v_row_sp, packed.v_val]
        )
        if direction == "sps":
            ratio = 1.0 / ratio
        u = w * (ratio - 1.0)
        kept = np.abs(u) <= log_term * d_kj
        acc += float(np.dot(packed.y[kept], u[kept])) / d_kj
    if o == 0.0:
        raise NoSamples(f"no forced samples available for arm {k} direction {direction}")
    return acc / o


def blockwise_pulled_blocks(pool: SamplePool, kernel: np.ndarray):
    """The pool's pulled blocks one at a time, as ``estimate_all`` once read them:
    per block with pulls, source arm by source arm, then in ``REGIMES`` order,
    the arm, the regime's index, the weights ``kernel`` gives its occupied cells
    against every target arm, their counts and their outcomes."""
    for arm, r in zip(*np.nonzero(pool._pulled)):
        counts = pool._counts[arm, r]
        occupied = counts.nonzero()[0]
        # A cell-major gather: the matrix product's summation order, and so
        # the estimates' bits, follow this (target-fastest) layout.
        weights = kernel[r, arm].T[occupied].T
        yield int(arm), int(r), weights, counts[occupied], pool._y[occupied]


def blockwise_estimate_all(
    pool: SamplePool, eps: float, div: DivergenceSet, kernel: np.ndarray
) -> EstimateVector:
    """``estimate_all`` block by block, one clip and product per pulled block:
    the reference whose bytes the batched pass keeps."""
    log_term = 2.0 * math.log(2.0 / eps)
    cutoffs = (div.m, div.d_sps, div.d_ssp)
    norm = np.zeros((len(REGIMES), pool.n_arms))
    acc = np.zeros((len(REGIMES), pool.n_arms))
    for j, r, w, counts, y in blockwise_pulled_blocks(pool, kernel):
        c = cutoffs[r][:, j]
        norm[r] += int(counts.sum()) / c
        acc[r] += ((w * (np.abs(w) <= (log_term * c)[:, None])) @ (counts * y)) / c

    with np.errstate(invalid="ignore", divide="ignore"):
        y, zeta_sps, zeta_ssp = np.where(norm > 0.0, acc / norm, np.nan)
    return EstimateVector(
        y=y, zeta_ssp=zeta_ssp, zeta_sps=zeta_sps, eps=eps,
        n_eff_y=norm[0], n_eff_ssp=norm[2], n_eff_sps=norm[1],
    )


def reference_fair_set(estimates, l: int, fairness_eps: float, remaining) -> tuple[int, ...]:
    """The fair set of ``bandit._clauses`` arm by arm: both directions clear the
    threshold by 3/2^l."""
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


def reference_unfair_records(estimates, l: int, fairness_eps: float, remaining) -> list:
    """The unfairness records of ``bandit._clauses`` arm by arm, clause by clause."""
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


def reference_suboptimal_records(estimates, l: int, reference, remaining) -> list:
    """The suboptimal records of ``bandit._clauses`` arm by arm: the arms of
    ``remaining`` trailing the best of ``reference`` (the fair set, or under
    ``outcome`` the survivors) by more than 5/2^l."""
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


def count_kernel_builds(monkeypatch) -> list:
    """The transport factors whose weight kernels are built from here on, from a cold memo."""
    build = sampling._build_kernel
    builds = []

    def counted(transport, regime):
        builds.append(transport)
        return build(transport, regime)

    monkeypatch.setattr(sampling, "_build_kernel", counted)
    sampling._TABLES.clear()
    return builds


def harmonic(n: int) -> float:
    """H_n, the phase schedule's normalizer ``logbar`` for n phases."""
    return float(sum(1.0 / i for i in range(1, n + 1)))


def _bracket_phase(numerator: float, gap: float) -> float:
    """Smallest integer phase l with numerator/2^l < gap; inf when gap <= 0."""
    if gap <= 0.0:
        return math.inf
    return float(max(1, math.ceil(math.log2(numerator / gap))))


def bound_report(
    oracle: dict,
    prepared: PreparedInstance,
    T: int,
    extra_constraints: Sequence[tuple[np.ndarray, float]] = (),
) -> dict:
    """Problem-dependent constants and both error bounds for an instance.

    Takes the exact oracle report (means, directional gaps, fair set) and
    rebuilds every constant of the two guarantees: per-arm ideal deletion
    phases, the hardness constant, and the exponential bounds, clamped to
    [0, 1] for reporting.  Its LPs go through ``bandit._allocate``, so they
    share the runs' process-wide memo.
    """
    mu = np.asarray(oracle["mu"], dtype=float)
    zeta_ssp = np.asarray(oracle["zeta_ssp"], dtype=float)
    zeta_sps = np.asarray(oracle["zeta_sps"], dtype=float)
    fairness_eps = float(oracle["fairness_eps"])
    fair = list(oracle["fair"])
    best = oracle["best_fair"]
    K = mu.shape[0]
    n = len(phase_schedule(T))
    logbar = harmonic(n)

    run = _Run(prepared, fairness_eps, "v2", None, extra_constraints)

    def vstar(active: Sequence[int]) -> float:
        return _allocate(run, tuple(sorted({int(k) for k in active})), "joint").v_star

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
        expo = 0.0 if math.isinf(h_bar) else T / (8.0 * h_bar * logbar)
        misid = float(min(1.0, 8.0 * K**2 * rho_star * math.exp(-expo)))

    v_full = vstar(range(K))
    xi_star = float(oracle["xi_star"])
    fair_err = float(
        min(
            1.0,
            4.0
            * K
            * n
            * math.exp(-(xi_star**2) * T * v_full**2 / (32.0 * n**3 * logbar)),
        )
    )

    return {
        "T": T,
        "budget": prepared.budget,
        "fairness_eps": fairness_eps,
        "n_phases": n,
        "logbar": logbar,
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


# -- the reference BIF parser ---------------------------------------------

# One alternative per token kind, tried in order at each offset: blanks and
# comments, a string (quotes kept), one punctuation mark, a word, else one
# bad character.  ``\w`` is exactly ``str.isalnum()`` plus ``_``.
_REFERENCE_TOKEN = re.compile(
    r'(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)|(?P<string>"[^"\n]*")'
    r"|(?P<word>[{}()\[\]|,;]|[\w.+-]+)|(?P<bad>.)",
    re.DOTALL,
)


def _reference_tokenize(text: str) -> tuple[list[str], list[int]]:
    """The token texts and their offsets in ``text``, one match at a time."""
    toks: list[str] = []
    offsets: list[int] = []
    for m in _REFERENCE_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "bad":
            c = m.group(kind)
            if c == '"':
                msg = "unterminated string"
            elif text.startswith("/*", m.start()):
                msg = "unterminated comment"
            else:
                msg = f"unexpected character {c!r}"
            raise bif._error(text, m.start(), msg)
        toks.append(m.group(kind))
        offsets.append(m.start())
    return toks, offsets


class _ReferenceCursor:
    def __init__(self, text: str):
        self.text = text
        self.toks, self.offsets = _reference_tokenize(text)
        self.i = 0

    def error(self, msg: str) -> ParseError:
        if self.i < len(self.toks):
            return bif._error(self.text, self.offsets[self.i], msg)
        return bif._error(self.text, self.offsets[-1] if self.toks else 0, f"{msg} (at end of input)")

    @property
    def done(self) -> bool:
        return self.i >= len(self.toks)

    def peek(self) -> str:
        if self.done:
            raise self.error("unexpected end of input")
        return self.toks[self.i]

    def next(self) -> str:
        t = self.peek()
        self.i += 1
        return t

    def name(self) -> str:
        """The next token read as a name: a string's contents, else the token."""
        t = self.next()
        return t[1:-1] if t.startswith('"') else t

    def expect(self, text: str) -> None:
        got = self.peek()
        if got != text:
            raise self.error(f"expected {text!r}, got {got!r}")
        self.i += 1

    def skip_statement(self) -> None:
        """Consume through the closing ';' (for ignored constructs)."""
        while self.next() != ";":
            pass


def _reference_skip_property(cur: _ReferenceCursor, where: str) -> None:
    warnings.warn(f"ignoring property statement in {where}", stacklevel=3)
    cur.skip_statement()


def _reference_float(cur: _ReferenceCursor) -> float:
    tok = cur.peek()
    try:
        val = float(tok[1:-1] if tok.startswith('"') else tok)
    except ValueError:
        raise cur.error(f"expected a number, got {tok!r}") from None
    cur.i += 1
    return val


def _reference_entry(cur: _ReferenceCursor) -> float:
    tok = cur.peek()
    val = _reference_float(cur)
    if math.isnan(val):
        cur.i -= 1
        raise cur.error(f"expected a probability, got {tok!r}")
    return val


def _reference_comma_list(cur: _ReferenceCursor, read=_ReferenceCursor.name) -> list:
    vals = [read(cur)]
    while cur.peek() == ",":
        cur.next()
        vals.append(read(cur))
    return vals


def _reference_variable(cur: _ReferenceCursor, states: dict) -> None:
    name = cur.name()
    if name in states:
        raise cur.error(f"variable {name!r} declared twice")
    cur.expect("{")
    found = None
    while cur.peek() != "}":
        head = cur.next()
        if head == "property":
            _reference_skip_property(cur, f"variable {name}")
            continue
        if head != "type":
            raise cur.error(f"unexpected {head!r} in variable block")
        kind = cur.next()
        if kind != "discrete":
            raise UnsupportedConstruct(f"variable {name!r} has type {kind!r}; only discrete is supported")
        cur.expect("[")
        tok = cur.peek()
        count = _reference_float(cur)
        if not math.isfinite(count) or count != int(count):
            cur.i -= 1
            raise cur.error(f"expected a whole number of states, got {tok!r}")
        count = int(count)
        cur.expect("]")
        cur.expect("{")
        vals = _reference_comma_list(cur)
        cur.expect("}")
        cur.expect(";")
        if len(vals) != count:
            raise cur.error(f"variable {name!r} declares {count} states but lists {len(vals)}")
        found = tuple(vals)
    cur.expect("}")
    if found is None:
        raise cur.error(f"variable {name!r} has no type declaration")
    states[name] = found


def _reference_normalize_rows(node: str, table: np.ndarray) -> np.ndarray:
    sums = table.sum(axis=1)
    bad = np.abs(sums - 1.0) > bif.ROW_TOL
    if np.any(bad):
        row = int(np.flatnonzero(bad)[0])
        raise NormalizationError(f"{node}: row {row} sums to {sums[row]:.8f}, outside 1 +/- {bif.ROW_TOL}")
    if np.any(table < 0.0):
        raise NormalizationError(f"{node}: negative probability entry")
    return table / sums[:, None]


def _reference_probability(cur: _ReferenceCursor, states: dict, parents: dict, cpts: dict) -> None:
    cur.expect("(")
    child = cur.name()
    ps: tuple[str, ...] = ()
    if cur.peek() == "|":
        cur.next()
        ps = tuple(_reference_comma_list(cur))
    cur.expect(")")
    if child not in states:
        raise cur.error(f"probability block for undeclared variable {child!r}")
    if child in cpts:
        raise cur.error(f"duplicate probability block for {child!r}")
    for p in ps:
        if p not in states:
            raise cur.error(f"{child!r} lists undeclared parent {p!r}")

    card = len(states[child])
    cards = [len(states[p]) for p in ps]
    n_rows, strides = math.prod(cards), radix_strides(cards)

    table = np.full((n_rows, card), np.nan)
    given = False  # a table or a row statement was read
    cur.expect("{")
    while cur.peek() != "}":
        if cur.peek() == "property":
            cur.next()
            _reference_skip_property(cur, f"probability {child}")
            continue
        if cur.peek() == "table":
            if given:
                raise cur.error(f"{child!r} table follows an earlier table or row")
            given = True
            cur.next()
            vals = _reference_comma_list(cur, _reference_entry)
            cur.expect(";")
            if len(vals) != n_rows * card:
                raise cur.error(f"{child!r} table has {len(vals)} entries, expected {n_rows * card}")
            table = np.asarray(vals).reshape(n_rows, card)
            continue
        given = True
        cur.expect("(")
        key = tuple(_reference_comma_list(cur))
        cur.expect(")")
        if len(key) != len(ps):
            raise cur.error(f"{child!r} row names {len(key)} parent states, expected {len(ps)}")
        idx = 0
        for val, p, st in zip(key, ps, strides):
            if val not in states[p]:
                raise cur.error(f"{val!r} is not a state of parent {p!r}")
            idx += states[p].index(val) * st
        if not np.isnan(table[idx]).all():
            raise cur.error(f"{child!r} row {key} given twice")
        vals = _reference_comma_list(cur, _reference_entry)
        cur.expect(";")
        if len(vals) != card:
            raise cur.error(f"{child!r} row {key} has {len(vals)} entries, expected {card}")
        table[idx] = vals
    cur.expect("}")

    if np.isnan(table).any():
        missing = int(np.flatnonzero(np.isnan(table).any(axis=1))[0])
        raise cur.error(f"{child!r} is missing row {missing}")
    parents[child] = tuple(ps)
    cpts[child] = _reference_normalize_rows(child, table)


def reference_parse_bif(text: str) -> bif.ParsedNetwork:
    """``bif.parse_bif`` one token at a time: every token through a cursor's
    ``peek``, each row written into a NaN-filled table as it is read, and each
    table normalized at the end of its block."""
    cur = _ReferenceCursor(text)
    cur.expect("network")
    name = cur.name()
    cur.expect("{")
    while cur.peek() != "}":
        if cur.peek() == "property":
            cur.next()
            _reference_skip_property(cur, "network block")
        else:
            raise cur.error(f"unexpected {cur.peek()!r} in network block")
    cur.expect("}")

    states: dict[str, tuple[str, ...]] = {}
    parents: dict[str, tuple[str, ...]] = {}
    cpts: dict[str, np.ndarray] = {}
    while not cur.done:
        head = cur.next()
        if head == "variable":
            _reference_variable(cur, states)
        elif head == "probability":
            _reference_probability(cur, states, parents, cpts)
        elif head == "property":
            _reference_skip_property(cur, "top level")
        else:
            cur.i -= 1
            raise cur.error(f"expected 'variable' or 'probability', got {head!r}")

    missing = [x for x in states if x not in cpts]
    if missing:
        raise ParseError(f"no probability block for variable {missing[0]!r}")
    model = CausalModel(
        nodes=tuple(states), cards={x: len(v) for x, v in states.items()}, parents=parents,
        cpts=cpts, sensitive="", intervention="", target="", target_values=np.zeros(0),
    )
    try:
        model.topological_order()
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return bif.ParsedNetwork(name=name, model=model, states=states)
