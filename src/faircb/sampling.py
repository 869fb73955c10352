"""Ancestral sampling under an arm and a regime, plus the per-pull importance weights.

A batch reads only Y, S, V and V's parents, and the children of S with
their parents.  The *sampled* nodes are the ancestral closure of those;
every other node is *barren*: nothing downstream of the batch depends on
it, so it is never drawn.  Each model carries a plan, built on its first
batch: the sampled nodes in topological order, each with its parents and
row strides, and the number of barren nodes before it and after the last.

Stream contract: a batch of ``n`` pulls consumes exactly the uniforms of a
walk over every node in topological order, ``n`` per node except a forced
S.  A run of ``r`` consecutive barren nodes takes its ``n * r`` uniforms in
one ``rng.random`` call whose values are dropped; a ``Generator`` fills
doubles in sequence, so the sampled nodes, and every later draw from the
same generator, see the same numbers as under the full walk.  S is always
sampled, even when childless, since a forced S draws nothing.

Cell code: the estimators read a pull only through the values of its *read
nodes*: V's parents, V and Y, then each child of S other than V followed by
its parents, each node once at its first place in that list.  ``cell`` is the
row-major mixed-radix code of those values (the first read node varies
slowest), so the plan's ``n_cells`` is the product of their cardinalities and
every pull field is a function of the cell alone.  A model whose ``n_cells``
exceeds ``oracles.enumeration_cap()`` raises ``EnumerationTooLarge`` on its
first batch, which bounds the per-cell pools of the estimators.

``transport_weight`` and ``counterfactual_weight`` are the one place that
turns a block of pulls into weights; the estimators and the Monte Carlo
divergences read pulls through them.  Both broadcast over leading table
axes, so a ``(K, rows, card)`` stack of arm tables yields the weights of
every pull against K arms at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EnumerationTooLarge
from .model import Arm, CausalModel, Regime, S_VALUE, SPRIME_VALUE
from .oracles import enumeration_cap

__all__ = [
    "BatchSamples",
    "sample_batch",
    "make_sampler",
    "transport_weight",
    "counterfactual_weight",
]


@dataclass
class BatchSamples:
    """A packed block of pulls from one arm under one regime.

    ``v_row`` indexes the realized parent assignment of the intervention node
    into the arm tables; ``v_row_s`` and ``v_row_sp`` are the same assignment
    with the S slot forced to s and s' (all three coincide when S is not a
    parent of the intervention node).  ``child_ratio`` carries the product over
    the non intervention children of S of ``P(x | pa, s) / P(x | pa, s')`` at
    the realized values.  ``cell`` is each pull's code among the model's
    ``n_cells`` cells (see the module docstring).
    """

    arm: int
    regime: Regime
    y: np.ndarray
    v_row: np.ndarray
    v_val: np.ndarray
    v_row_s: np.ndarray
    v_row_sp: np.ndarray
    child_ratio: np.ndarray
    cell: np.ndarray
    n_cells: int

    @property
    def n(self) -> int:
        return int(self.y.shape[0])


# The per-pull fields the weights and the estimators read; each is a function of the cell.
PULL_FIELDS = ("y", "v_row", "v_val", "v_row_s", "v_row_sp", "child_ratio")


def _categorical_rows(table: np.ndarray, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one value per entry of ``rows`` from the categorical rows of ``table``."""
    cum = np.cumsum(table[rows], axis=1)
    u = rng.random(rows.shape[0])
    vals = (u[:, None] > cum).sum(axis=1)
    return np.minimum(vals, table.shape[1] - 1)


@dataclass(frozen=True)
class _Step:
    """Draw ``node`` from its table after skipping the uniforms of ``barren`` nodes."""

    barren: int
    node: str
    parents: tuple[str, ...]
    strides: tuple[int, ...]


@dataclass(frozen=True)
class _Plan:
    """The sampled nodes in topological order, the barren nodes after the last,
    and the mixed-radix cell code over the read nodes."""

    steps: tuple[_Step, ...]
    trailing: int
    strides: dict[str, tuple[int, ...]]
    cell_nodes: tuple[str, ...]
    cell_strides: tuple[int, ...]
    n_cells: int


def _cell_code(model: CausalModel) -> tuple[tuple[str, ...], tuple[int, ...], int]:
    """Read nodes, their row-major strides and the cell count; raises past the enumeration cap."""
    s, v = model.sensitive, model.intervention
    read = [*model.parents[v], v, model.target]
    for x in model.children(s):
        if x != v:
            read += [x, *model.parents[x]]
    nodes = tuple(dict.fromkeys(read))
    cards = [model.cards[x] for x in nodes]
    n_cells = math.prod(cards)
    cap = enumeration_cap()
    if n_cells > cap:
        raise EnumerationTooLarge(f"{n_cells} cells over {nodes} exceeds the cap of {cap}")
    strides = tuple(math.prod(cards[i + 1 :]) for i in range(len(cards)))
    return nodes, strides, n_cells


def _plan(model: CausalModel) -> _Plan:
    """The sampling plan of ``model``, built on first use and cached on the model."""
    if model._sample_plan is not None:
        return model._sample_plan
    s = model.sensitive
    sampled = set(model.ancestors({s, model.intervention, model.target, *model.children(s)}))
    steps = []
    barren = 0
    for node in model.topological_order():
        if node not in sampled:
            barren += 1
            continue
        steps.append(_Step(barren, node, model.parents[node], model.row_strides(node)))
        barren = 0
    model._sample_plan = _Plan(
        tuple(steps), barren, {st.node: st.strides for st in steps}, *_cell_code(model)
    )
    return model._sample_plan


def _rows(
    values: dict[str, np.ndarray], parents: Sequence[str], strides: Sequence[int], n: int
) -> np.ndarray:
    """Row-major table row of every pull given its parents' values."""
    rows = np.zeros(n, dtype=np.int64)
    for p, st in zip(parents, strides):
        rows += values[p] * st
    return rows


def _draw_values(
    model: CausalModel,
    arm: Arm,
    regime: Regime,
    n: int,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Values of the sampled nodes; each barren node still uses up its ``n`` uniforms."""
    values: dict[str, np.ndarray] = {}
    forced = regime.forced_value
    plan = _plan(model)
    for step in plan.steps:
        if step.barren:
            rng.random(n * step.barren)
        node = step.node
        if node == model.sensitive and forced is not None:
            values[node] = np.full(n, forced, dtype=np.int64)
            continue
        table = arm.table if node == model.intervention else model.cpts[node]
        values[node] = _categorical_rows(table, _rows(values, step.parents, step.strides, n), rng)
    if plan.trailing:
        rng.random(n * plan.trailing)
    return values


def _pack(
    model: CausalModel,
    arm: Arm,
    regime: Regime,
    values: dict[str, np.ndarray],
) -> BatchSamples:
    n = values[model.target].shape[0]
    v = model.intervention
    s = model.sensitive
    plan = _plan(model)
    strides = plan.strides

    ps = model.parents[v]
    v_row = _rows(values, ps, strides[v], n)
    if s in ps:
        s_stride = strides[v][ps.index(s)]
        base = v_row - values[s] * s_stride
        v_row_s = base + S_VALUE * s_stride
        v_row_sp = base + SPRIME_VALUE * s_stride
    else:
        v_row_s = v_row
        v_row_sp = v_row

    child_ratio = np.ones(n, dtype=float)
    for x in model.children(s):
        if x == v:
            continue
        xps = model.parents[x]
        rows = _rows(values, xps, strides[x], n)
        s_stride = strides[x][xps.index(s)]
        base = rows - values[s] * s_stride
        cpt = model.cpts[x]
        xv = values[x]
        child_ratio *= cpt[base + S_VALUE * s_stride, xv] / cpt[base + SPRIME_VALUE * s_stride, xv]

    y = model.target_values[values[model.target]]
    return BatchSamples(
        arm=arm.index,
        regime=regime,
        y=y,
        v_row=v_row,
        v_val=values[v].astype(np.int64),
        v_row_s=v_row_s,
        v_row_sp=v_row_sp,
        child_ratio=child_ratio,
        cell=_rows(values, plan.cell_nodes, plan.cell_strides, n),
        n_cells=plan.n_cells,
    )


def sample_batch(
    model: CausalModel,
    arm: Arm,
    regime: Regime,
    n: int,
    rng: np.random.Generator,
) -> BatchSamples:
    """Draw ``n`` pulls of ``arm`` under ``regime``."""
    values = _draw_values(model, arm, regime, n, rng)
    return _pack(model, arm, regime, values)


def make_sampler(
    model: CausalModel, arms: Sequence[Arm]
) -> Callable[[int, Regime, int, np.random.Generator], BatchSamples]:
    """Bind a model and arms into the pull interface the bandit loop consumes."""

    def pull(arm_index: int, regime: Regime, n: int, rng: np.random.Generator) -> BatchSamples:
        return sample_batch(model, arms[arm_index], regime, n, rng)

    return pull


def transport_weight(batch: BatchSamples, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """``P_target(v | pa) / P_source(v | pa)`` at every pull of ``batch``.

    ``targets`` and ``sources`` are intervention tables or stacks of them;
    their leading axes broadcast, and the pulls run along the last axis.
    """
    return targets[..., batch.v_row, batch.v_val] / sources[..., batch.v_row, batch.v_val]


def counterfactual_weight(
    batch: BatchSamples, targets: np.ndarray, sources: np.ndarray, direction: str
) -> np.ndarray:
    """Signed weight ``w * (ratio - 1)`` whose mean over forced pulls is the counterfactual gap.

    ``w`` is the transport weight and ``ratio`` the product over the children
    of S of ``P(x | pa, s) / P(x | pa, s')`` under the target, inverted for
    ``"sps"``.  ``"ssp"`` (counterfactual s, evidence s') reads pulls forced to
    s', ``"sps"`` pulls forced to s; the caller supplies the matching batch.
    """
    if direction not in ("ssp", "sps"):
        raise ValueError(f"unknown direction {direction!r}")
    ratio = (
        batch.child_ratio
        * targets[..., batch.v_row_s, batch.v_val]
        / targets[..., batch.v_row_sp, batch.v_val]
    )
    if direction == "sps":
        ratio = 1.0 / ratio
    return transport_weight(batch, targets, sources) * (ratio - 1.0)
