"""Ancestral sampling under an arm and a regime, per-cell pull fields, and importance weights.

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
every pull field is a function of the cell alone.  The plan decodes each code
into its fields once per model, a ``Cells`` table of six ``n_cells`` vectors;
a batch carries its pulls' cell codes and that table, and
``batch.cells.take(batch.cell)`` gives its fields pull by pull.  A model whose
``n_cells`` exceeds ``oracles.enumeration_cap()`` raises
``EnumerationTooLarge`` on its first batch, which bounds the table and the
per-cell counts of the estimators.

``transport_weight`` and ``counterfactual_weight`` are the one place that
turns pull fields into weights: the estimators feed them the occupied cells,
the Monte Carlo divergences the fields of each pull.  Both broadcast over
leading table axes, so a ``(K, rows, card)`` stack of arm tables yields the
weights of every entry against K arms at once.
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
    "Cells",
    "BatchSamples",
    "sample_batch",
    "make_sampler",
    "transport_weight",
    "counterfactual_weight",
]


@dataclass(frozen=True)
class Cells:
    """The six pull fields of each of a model's cells, indexed by cell code.

    ``y`` is the encoded outcome.  ``v_row`` indexes the parent assignment of
    the intervention node into the arm tables and ``v_val`` is its value;
    ``v_row_s`` and ``v_row_sp`` are the same assignment with the S slot
    forced to s and s' (all three coincide when S is not a parent of the
    intervention node).  ``child_ratio`` is the product over the non
    intervention children of S of ``P(x | pa, s) / P(x | pa, s')`` at the
    cell's values.  ``take(codes)`` holds the fields of the cells ``codes``,
    so ``batch.cells.take(batch.cell)`` gives the fields of every pull.
    """

    y: np.ndarray
    v_row: np.ndarray
    v_val: np.ndarray
    v_row_s: np.ndarray
    v_row_sp: np.ndarray
    child_ratio: np.ndarray

    @property
    def n_cells(self) -> int:
        return int(self.y.shape[0])

    def take(self, codes: np.ndarray) -> "Cells":
        return Cells(self.y[codes], self.v_row[codes], self.v_val[codes],
                     self.v_row_s[codes], self.v_row_sp[codes], self.child_ratio[codes])


@dataclass
class BatchSamples:
    """A block of pulls from one arm under one regime: each pull's cell code
    (see the module docstring) and the table of the model's cells."""

    arm: int
    regime: Regime
    cell: np.ndarray
    cells: Cells

    @property
    def n(self) -> int:
        return int(self.cell.shape[0])

    @property
    def n_cells(self) -> int:
        return self.cells.n_cells


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
    the mixed-radix cell code over the read nodes and the table of its cells."""

    steps: tuple[_Step, ...]
    trailing: int
    cell_nodes: tuple[str, ...]
    cell_strides: tuple[int, ...]
    cells: Cells


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


def _decode_cells(
    model: CausalModel, nodes: Sequence[str], strides: Sequence[int], n_cells: int
) -> Cells:
    """The pull fields of every cell code ``0 .. n_cells - 1``, from its read-node values.

    The arithmetic is elementwise, so a cell's fields are bit for bit those of
    any pull in it.  A cell no pull can reach may hold an inf or NaN ratio.
    """
    codes = np.arange(n_cells, dtype=np.int64)
    values = {x: codes // st % model.cards[x] for x, st in zip(nodes, strides)}
    v, s = model.intervention, model.sensitive

    ps = model.parents[v]
    v_strides = model.row_strides(v)
    v_row_s = v_row_sp = v_row = _rows(values, ps, v_strides, n_cells)
    if s in ps:
        s_stride = v_strides[ps.index(s)]
        base = v_row - values[s] * s_stride
        v_row_s = base + S_VALUE * s_stride
        v_row_sp = base + SPRIME_VALUE * s_stride

    child_ratio = np.ones(n_cells, dtype=float)
    for x in model.children(s):
        if x == v:
            continue
        xps, x_strides = model.parents[x], model.row_strides(x)
        s_stride = x_strides[xps.index(s)]
        base = _rows(values, xps, x_strides, n_cells) - values[s] * s_stride
        cpt, xv = model.cpts[x], values[x]
        num, den = cpt[base + S_VALUE * s_stride, xv], cpt[base + SPRIME_VALUE * s_stride, xv]
        with np.errstate(divide="ignore", invalid="ignore"):
            child_ratio *= num / den

    y = model.target_values[values[model.target]]
    return Cells(y, v_row, values[v], v_row_s, v_row_sp, child_ratio)


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
    nodes, strides, n_cells = _cell_code(model)
    cells = _decode_cells(model, nodes, strides, n_cells)
    model._sample_plan = _Plan(tuple(steps), barren, nodes, strides, cells)
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


def sample_batch(
    model: CausalModel,
    arm: Arm,
    regime: Regime,
    n: int,
    rng: np.random.Generator,
) -> BatchSamples:
    """Draw ``n`` pulls of ``arm`` under ``regime``."""
    values = _draw_values(model, arm, regime, n, rng)
    plan = _plan(model)
    cell = _rows(values, plan.cell_nodes, plan.cell_strides, n)
    return BatchSamples(arm=arm.index, regime=regime, cell=cell, cells=plan.cells)


def make_sampler(
    model: CausalModel, arms: Sequence[Arm]
) -> Callable[[int, Regime, int, np.random.Generator], BatchSamples]:
    """Bind a model and arms into the pull interface the bandit loop consumes."""

    def pull(arm_index: int, regime: Regime, n: int, rng: np.random.Generator) -> BatchSamples:
        return sample_batch(model, arms[arm_index], regime, n, rng)

    return pull


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
