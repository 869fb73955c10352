"""Pulls as cell counts drawn from the cell law, per-cell pull fields, and importance weights.

Cell code: the estimators read a pull only through the values of its *read
nodes*: V's parents, V and Y, then each child of S other than V followed by
its parents, each node once at its first place in that list.  A pull's cell
is the row-major mixed-radix code of those values (the first read node
varies slowest), so the plan's ``n_cells`` is the product of their
cardinalities and every pull field is a function of the cell alone.  The
plan decodes each code into its fields once per model, a ``Cells`` table of
six ``n_cells`` vectors.  A model whose ``n_cells`` exceeds
``oracles.enumeration_cap()`` raises ``EnumerationTooLarge``, which bounds the
table and the per-cell counts of the estimators.

Cell law: since a pull enters every estimate only through its cell, ``n``
pulls of one arm under one regime are fully described by
``multinomial(n, P(cell | arm, regime))``.  ``cell_laws`` looks up the
``(K, 3, n_cells)`` table of these laws, arms by position and regimes in
``REGIMES`` order, in a process-wide memo keyed on content (the closure's
structure and tables, the designated and the read nodes, the arm tables), so
equal models built apart share one build and an edit in place forces a new
one.  It keeps at most ``_MEMO_LAWS`` entries and, like the allocation memo,
takes no lock.  A miss enumerates the ancestral closure of the read nodes
once per regime for all arms (``oracles.enumerate_arms``), which raises
``EnumerationTooLarge`` in ``cell_laws``, before any pull, when that closure
is over the cap.

Stream contract: a batch is a ``(K, 3)`` count matrix, ``sizes[j, r]`` pulls
of arm ``j`` under ``REGIMES[r]``; the bandit loop draws a whole phase in one
``sample_batch`` call.  That call draws every nonzero entry, row-major (arm
by arm, then in ``REGIMES`` order), in one ``rng.multinomial``, which
consumes the generator entry after entry exactly as one
``rng.multinomial(n, law)`` per entry, in that order, and draws nothing for a
zero entry.  So a phase drawn in one call has the counts, and leaves the
generator in the state, of one call per nonzero entry.  A batch carries the
drawn entries, one row of ``n_cells`` counts per entry, and the model's
``Cells`` table.

``transport_weight`` and ``counterfactual_weight`` are the one place that
turns pull fields into weights.  Both broadcast over leading table axes, so a
``(K, rows, card)`` stack of arm tables yields the weights of every entry
against K arms at once.  The divergences and the oracle report feed them
the cells a law reaches; the estimators read ``weight_kernel``, their table
over every cell of an instance, which is found in a memo like the cell laws'
(keyed on the contents of the ``Cells`` table and the arm tables, bounded by
``_MEMO_LAWS``) and holds 3K^2 * ``n_cells`` floats.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import EnumerationTooLarge
from .model import REGIMES, Arm, CausalModel, S_VALUE, SPRIME_VALUE, array_key, encode_rows
from .oracles import attribute_ratio_values, enumerate_arms, enumeration_cap

__all__ = [
    "Cells",
    "BatchSamples",
    "cell_laws",
    "model_cells",
    "sample_batch",
    "transport_weight",
    "counterfactual_weight",
    "weight_kernel",
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
    cell's values.  ``take(codes)`` holds the fields of the cells ``codes``.
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
    """Pulls drawn from a count matrix: ``drawn`` holds the arm and regime indices
    of its nonzero entries, each (arm, regime) once, in draw order; ``counts[b]``
    the pulls of entry ``b`` per cell code (see the module docstring) and
    ``cells`` the table of the model's cells."""

    drawn: tuple[np.ndarray, np.ndarray]
    counts: np.ndarray
    cells: Cells

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def n_cells(self) -> int:
        return self.cells.n_cells


@dataclass(frozen=True)
class _Plan:
    """The mixed-radix cell code over the read nodes, the table of its cells and
    the read nodes' ancestral closure, whose enumeration gives the cell laws."""

    closure: tuple[str, ...]
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
    v_row_s = v_row_sp = v_row = encode_rows(values, ps, v_strides, n_cells)
    if s in ps:
        s_stride = v_strides[ps.index(s)]
        base = v_row - values[s] * s_stride
        v_row_s = base + S_VALUE * s_stride
        v_row_sp = base + SPRIME_VALUE * s_stride

    child_ratio = attribute_ratio_values(model, None, values, S_VALUE, SPRIME_VALUE)
    y = model.target_values[values[model.target]]
    return Cells(y, v_row, values[v], v_row_s, v_row_sp, child_ratio)


def _plan(model: CausalModel) -> _Plan:
    """The sampling plan of ``model``, built on first use and cached on the model."""
    if model._sample_plan is None:
        nodes, strides, n_cells = _cell_code(model)
        cells = _decode_cells(model, nodes, strides, n_cells)
        model._sample_plan = _Plan(model.ancestors(nodes), nodes, strides, cells)
    return model._sample_plan


def model_cells(model: CausalModel) -> Cells:
    """The ``Cells`` table of ``model``'s cell codes, decoded once per model."""
    return _plan(model).cells


# Bound of the cell-law and weight-kernel memos: the tables each keeps, one per
# model (or cell table) and arm set.
_MEMO_LAWS = 8
_LAWS: OrderedDict[tuple, np.ndarray] = OrderedDict()


def _build_laws(model: CausalModel, plan: _Plan, tables: np.ndarray) -> np.ndarray:
    """``P(cell | arm, regime)`` of every arm of the ``(K, rows, card)`` stack ``tables``.

    One enumeration of the closure per regime gives every arm's joint, which
    is binned by cell code.  Every law is normalized, so that tables whose
    rows sum to one only within ``ROW_ATOL`` still give valid multinomials.
    """
    n_cells = plan.cells.n_cells
    laws = np.zeros((len(tables), len(REGIMES), n_cells))
    for row, regime in enumerate(REGIMES):
        for probs, values in enumerate_arms(model, tables, plan.cell_nodes, regime.forced_value):
            code = encode_rows(values, plan.cell_nodes, plan.cell_strides, probs.shape[1])
            for law, p in zip(laws[:, row], probs):
                law += np.bincount(code, weights=p, minlength=n_cells)
    return laws / laws.sum(axis=2, keepdims=True)


def _memoized(memo: OrderedDict, key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
    """``memo[key]``, built read-only on a miss; the ``_MEMO_LAWS`` most recent are kept."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = build()
        value.flags.writeable = False
        if len(memo) > _MEMO_LAWS:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    return value


def cell_laws(model: CausalModel, arms: Sequence[Arm]) -> np.ndarray:
    """The read-only ``(K, 3, n_cells)`` cell laws of ``arms``, from the memo or built
    on a miss; a closure over the enumeration cap raises here, before any pull."""
    plan = _plan(model)
    tables = np.stack([arm.table for arm in arms])
    v = model.intervention
    key = (
        tuple((x, model.cards[x], model.parents[x]) for x in plan.closure), plan.cell_nodes,
        tuple(array_key(model.cpts[x]) for x in plan.closure if x != v),
        (model.sensitive, v), array_key(tables),
    )
    return _memoized(_LAWS, key, lambda: _build_laws(model, plan, tables))


def sample_batch(
    model: CausalModel, laws: np.ndarray, sizes: np.ndarray, rng: np.random.Generator
) -> BatchSamples:
    """Draw the ``(K, 3)`` count matrix ``sizes``: the cell counts of ``sizes[j, r]``
    pulls from the law ``laws[j, r]``, every nonzero entry in one ``rng.multinomial``."""
    drawn = np.nonzero(sizes)
    counts = rng.multinomial(sizes[drawn], laws[drawn])
    return BatchSamples(drawn, counts, _plan(model).cells)


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


_KERNELS: OrderedDict[tuple, np.ndarray] = OrderedDict()


def _build_kernel(cells: Cells, tables: np.ndarray) -> np.ndarray:
    """The ``(3, K, K, n_cells)`` weights of every cell: ``[r, j, k]`` weighs source
    arm ``j``'s pulls under ``REGIMES[r]`` against target arm ``k``.

    Observational pulls carry the transport weight, pulls forced to s the
    ``"sps"`` weight and pulls forced to s' the ``"ssp"`` weight.  A cell no
    pull can reach may hold an inf or NaN weight.
    """
    sources = tables[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.stack([
            transport_weight(cells, tables, sources),
            counterfactual_weight(cells, tables, sources, "sps"),
            counterfactual_weight(cells, tables, sources, "ssp"),
        ])
    # Stored cell-major: the weights of gathered cells then come out in the
    # (target-fastest) layout that both functions give a subset of cells.
    return np.ascontiguousarray(kernel.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)


def weight_kernel(cells: Cells, tables: np.ndarray) -> np.ndarray:
    """The read-only weight kernel of ``cells`` under the ``(K, rows, card)`` arm
    tables, from a memo keyed on both contents or built on a miss (see ``_build_kernel``)."""
    key = (tuple(array_key(getattr(cells, f.name)) for f in fields(cells)), array_key(tables))
    return _memoized(_KERNELS, key, lambda: _build_kernel(cells, tables))
