"""Ancestral sampling under an arm and a regime, per-cell pull fields, and importance weights.

A batch is a sequence of *blocks* ``(arm, regime, n)``, drawn in order; the
bandit loop draws a whole phase, arm by arm and regime by regime, in one
``sample_batch`` call.  A pull reads only Y, S, V and V's parents, and the
children of S with their parents.  The *sampled* nodes are the ancestral
closure of those; every other node is *barren*: nothing downstream of the
batch depends on it, so it is never drawn.  Each model carries a plan, built
on its first batch: the sampled nodes in topological order, each with its
parents, row strides and table cumulated along each row.  The arms' tables
are cumulated once per ``make_sampler`` into one ``(K, rows, card)`` stack,
from which the intervention node reads each pull's own arm.  Cumulating a whole
table gives the same bits as cumulating its gathered rows.

Stream contract: block after block, in the order given, a block of ``n``
pulls consumes exactly the uniforms of a walk over every node in
topological order, ``n`` per node except a forced S, node after node.  Each
block takes them in one ``rng.random`` call and keeps the rows of the
sampled nodes, dropping those of the barren ones; a ``Generator`` fills
doubles in sequence, so every pull, and every later draw from the same
generator, sees the same numbers as under one full walk per block.  A
sequence of blocks is thus drawn exactly as by one batch per block in the
same order.  S is always sampled, even when childless, since a forced S
draws nothing.

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
    "Block",
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


Block = tuple[int, Regime, int]
"""``(arm, regime, n)``: ``n`` pulls of one arm under one regime."""


@dataclass
class BatchSamples:
    """Pulls drawn in blocks: ``blocks[b]`` is ``(arm index, regime, n)`` in draw
    order, ``cell`` holds every pull's cell code (see the module docstring),
    block after block, and ``cells`` is the table of the model's cells."""

    blocks: tuple[Block, ...]
    cell: np.ndarray
    cells: Cells

    @property
    def n(self) -> int:
        return int(self.cell.shape[0])

    @property
    def n_cells(self) -> int:
        return self.cells.n_cells


@dataclass(frozen=True)
class _ArmTables:
    """Arms as the sampler reads them: each arm's pool index, and the
    ``(K, rows, card)`` stack of their tables cumulated along each row."""

    index: tuple[int, ...]
    cum: np.ndarray

    @classmethod
    def of(cls, arms: Sequence[Arm]) -> "_ArmTables":
        cum = np.cumsum(np.stack([arm.table for arm in arms]), axis=2)
        return cls(tuple(arm.index for arm in arms), cum)


@dataclass(frozen=True)
class _Step:
    """Draw ``node`` from ``cum``, its table cumulated along each row (None for
    the intervention node, which reads the pull's arm), at its parents' row."""

    node: str
    parents: tuple[str, ...]
    strides: tuple[int, ...]
    cum: np.ndarray | None


@dataclass(frozen=True)
class _Plan:
    """The sampled nodes in topological order; where each one's uniforms sit in
    a block's walk over all ``walk`` nodes (``walk - 1`` with S forced, S's
    own entry then a placeholder); the mixed-radix cell code over the read
    nodes and the table of its cells."""

    steps: tuple[_Step, ...]
    walk: int
    rows: np.ndarray
    rows_forced: np.ndarray
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
    s, v = model.sensitive, model.intervention
    sampled = set(model.ancestors({s, v, model.target, *model.children(s)}))
    order = model.topological_order()
    steps = tuple(
        _Step(node, model.parents[node], model.row_strides(node),
              None if node == v else np.cumsum(model.cpts[node], axis=1))
        for node in order if node in sampled
    )
    rows = np.array([order.index(step.node) for step in steps], dtype=np.int64)
    at_s = order.index(s)
    rows_forced = np.where(rows > at_s, rows - 1, rows)
    rows_forced[rows == at_s] = 0
    nodes, strides, n_cells = _cell_code(model)
    cells = _decode_cells(model, nodes, strides, n_cells)
    model._sample_plan = _Plan(steps, len(order), rows, rows_forced, nodes, strides, cells)
    return model._sample_plan


def _rows(
    values: dict[str, np.ndarray], parents: Sequence[str], strides: Sequence[int], n: int
) -> np.ndarray:
    """Row-major table row of every pull given its parents' values."""
    rows = np.zeros(n, dtype=np.int64)
    for p, st in zip(parents, strides):
        rows += values[p] * st
    return rows


def sample_batch(
    model: CausalModel,
    arms: _ArmTables,
    blocks: Sequence[Block],
    rng: np.random.Generator,
) -> BatchSamples:
    """Draw each block ``(j, regime, n)``: ``n`` pulls of the ``j``-th arm under ``regime``.

    Each block takes the uniforms of its full walk in one ``rng.random`` call
    and keeps the rows of the sampled nodes; one walk over the sampled nodes
    then draws every pull of every block.
    """
    plan = _plan(model)
    sizes = [n for _, _, n in blocks]
    total = sum(sizes)
    u = np.empty((len(plan.steps), total))
    s_forced = np.full(total, -1, dtype=np.int64)
    start = 0
    for (_, regime, n), stop in zip(blocks, np.cumsum(sizes).tolist()):
        forced = regime.forced_value
        keep, width = (plan.rows, plan.walk) if forced is None else (plan.rows_forced, plan.walk - 1)
        u[:, start:stop] = rng.random(n * width).reshape(width, n)[keep]
        if forced is not None:
            s_forced[start:stop] = forced
        start = stop
    arm = np.repeat(np.array([j for j, _, _ in blocks], dtype=np.int64), sizes)
    values: dict[str, np.ndarray] = {}
    for draws, step in zip(u, plan.steps):
        rows = _rows(values, step.parents, step.strides, total)
        cum = arms.cum[arm, rows] if step.cum is None else step.cum[rows]
        vals = np.minimum((draws[:, None] > cum).sum(axis=1), cum.shape[1] - 1)
        if step.node == model.sensitive:
            vals = np.where(s_forced < 0, vals, s_forced)
        values[step.node] = vals
    cell = _rows(values, plan.cell_nodes, plan.cell_strides, total)
    drawn = tuple((arms.index[j], regime, n) for j, regime, n in blocks)
    return BatchSamples(blocks=drawn, cell=cell, cells=plan.cells)


def make_sampler(
    model: CausalModel, arms: Sequence[Arm]
) -> Callable[[Sequence[Block], np.random.Generator], BatchSamples]:
    """Bind a model and arms into the pull interface the bandit loop consumes:
    one ``sample_batch`` call per sequence of blocks."""
    tables = _ArmTables.of(arms)

    def pull(blocks: Sequence[Block], rng: np.random.Generator) -> BatchSamples:
        return sample_batch(model, tables, blocks, rng)

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
