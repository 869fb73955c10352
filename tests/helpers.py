"""Shared fixtures: hand-sized models, random enumerable instances, brute oracles.

The brute-force functions enumerate with plain ``itertools.product`` loops and
no ancestral pruning, so they cross-check the vectorized oracles through a
completely separate code path.  Likewise the single-pull sampler, the
full-walk batch sampler, the scalar importance weights, the per-pull
``ReferencePool`` and the per-target pooled estimators below are written
apart from the batched sampling kernel, the per-cell ``SamplePool`` and
``estimate_all``, which the tests compare against them.  The conditional
f-divergence, the empirical weight quantiles that the cutoff matrices must
dominate, and the Monte Carlo oracles are references the package itself
never needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import logsumexp

from faircb.divergence import DivergenceSet
from faircb.errors import FairCBError
from faircb.model import Arm, CausalModel, Instance, Regime, S_VALUE, SPRIME_VALUE
from faircb.sampling import BatchSamples, Cells, counterfactual_weight, make_sampler
from faircb.oracles import (
    attribute_ratio_values,
    direction_values,
    enumerate_joint,
    marginal_rows,
)

S_CHAIN_F = np.array([0.2, 0.5, 0.9])


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
            ratio = attribute_ratio_values(model, arm_i, sub, num, den)
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


def sample_block(
    model: CausalModel, arm: Arm, regime: Regime, n: int, rng: np.random.Generator
) -> BatchSamples:
    """``n`` pulls of ``arm`` under ``regime``: a sampler call with one block."""
    return make_sampler(model, [arm])([(0, regime, n)], rng)


def mc_outcome_mean(model: CausalModel, arm: Arm, draws: int, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the arm mean from observational pulls."""
    batch = sample_block(model, arm, Regime.OBSERVATIONAL, draws, rng)
    return float(batch.cells.take(batch.cell).y.mean())


def mc_fairness(
    model: CausalModel, arm: Arm, direction: str, draws: int, rng: np.random.Generator
) -> float:
    """Monte Carlo estimate of the counterfactual gap from forced pulls of the arm itself."""
    regime = Regime.FORCE_SPRIME if direction == "ssp" else Regime.FORCE_S
    batch = sample_block(model, arm, regime, draws, rng)
    pulls = batch.cells.take(batch.cell)
    return float((pulls.y * counterfactual_weight(pulls, arm.table, arm.table, direction)).mean())


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
    draws as a one-pull ``sample_batch``.
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

    Each unforced node draws its ``n`` uniforms when the walk reaches it;
    ``sample_batch`` must return the same cell codes, with the same fields,
    and leave ``rng`` in the same state.
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

    def add(self, batch: BatchSamples) -> None:
        start = 0
        for arm, regime, n in batch.blocks:
            if not 0 <= arm < self.n_arms:
                raise ValueError(f"arm index {arm} out of range")
            if n:
                cell = batch.cell[start : start + n]
                self._blocks.setdefault((arm, regime), []).append(batch.cells.take(cell))
            start += n

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
