"""Pulls as cell counts drawn from the cell law, per-cell pull fields, and importance weights.

Cell code: the estimators read a pull only through the values of its *read
nodes* (``CausalModel.read_nodes``): V's parents, V and Y, then each child of
S other than V followed by its parents, each node once.  A pull's cell
is the row-major mixed-radix code of those values (the first read node
varies slowest), so ``n_cells`` is the product of their cardinalities and
every pull field is a function of the cell alone.  The decoded fields of
every code form a ``Cells`` table of six ``n_cells`` vectors.  A model whose
``n_cells`` exceeds ``oracles.enumeration_cap()`` raises
``EnumerationTooLarge``, which bounds the table and the per-cell counts of
the estimators.

Cell law: since a pull enters every estimate only through its cell, ``n``
pulls of one arm under one regime are fully described by
``multinomial(n, P(cell | arm, regime))``.  ``instance_tables`` looks up the
``Cells`` table, the ``(K, 3, n_cells)`` table of these laws (arms by
position, regimes in ``REGIMES`` order), the weight factors, kernel and
exact divergences of a model and its arms in one process-wide memo keyed on
content (the closure's structure and its tables but V's, the read and
designated nodes, the target encoding, the arm tables), so equal models built apart share one build and an edit in
place forces a new one.  It keeps at most ``_MEMO_TABLES`` entries and, like
the allocation memo, takes no lock.  A miss enumerates the ancestral closure
of the read nodes once per regime for all arms (``oracles.enumerate_arms``),
which raises ``EnumerationTooLarge`` before any pull when that closure is
over the cap.

Stream contract: a batch is a ``(K, 3)`` count matrix, ``sizes[j, r]`` pulls
of arm ``j`` under ``REGIMES[r]``; the bandit loop draws a whole phase in one
``sample_batch`` call.  That call draws every nonzero entry, row-major (arm
by arm, then in ``REGIMES`` order), in one ``rng.multinomial``, which
consumes the generator entry after entry exactly as one
``rng.multinomial(n, law)`` per entry, in that order, and draws nothing for a
zero entry.  So a phase drawn in one call has the counts, and leaves the
generator in the state, of one call per nonzero entry.  A batch carries the
drawn entries and one row of ``n_cells`` counts per entry.

Weights: a pull of arm ``j`` weighs against arm ``k`` by ``k``'s transport
factor ``P_k(v | pa)`` over ``j``'s, times ``k``'s signed factor of the pull's
regime (see ``_weight_factors``), the one place that turns arm tables into
weights.  The weight kernel, their product over every cell (3K^2 * ``n_cells``
floats, at most ``_KERNEL_CAP_BYTES``), is what the divergences and the
estimators read; the oracle report reads an arm's signed factors alone, its
weight against itself on every cell it reaches, and never builds the kernel.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EnumerationTooLarge
from .model import REGIMES, Arm, CausalModel, array_key, decode_rows, encode_rows
from .oracles import enumerate_arms, enumeration_cap

__all__ = [
    "Cells",
    "BatchSamples",
    "InstanceTables",
    "instance_tables",
    "sample_batch",
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
    cell's values.
    """

    y: np.ndarray
    v_row: np.ndarray
    v_val: np.ndarray
    v_row_s: np.ndarray
    v_row_sp: np.ndarray
    child_ratio: np.ndarray


@dataclass
class BatchSamples:
    """Pulls drawn from a count matrix: ``drawn`` holds the arm and regime indices
    of its nonzero entries, each (arm, regime) once, in draw order, and
    ``counts[b]`` the pulls of entry ``b`` per cell code (see the module docstring)."""

    drawn: tuple[np.ndarray, np.ndarray]
    counts: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def _decode_cells(model: CausalModel, nodes: Sequence[str], cards: Sequence[int]) -> Cells:
    """The pull fields of every cell code ``0 .. n_cells - 1``, from its read-node values.

    The arithmetic is elementwise, so a cell's fields are bit for bit those of
    any pull in it.  A cell no pull can reach may hold an inf or NaN ratio.
    """
    n_cells = math.prod(cards)
    values = decode_rows(np.arange(n_cells, dtype=np.int64), nodes, cards)
    v = model.intervention
    v_row = encode_rows(values, model.parents[v], model.parent_cards(v), n_cells)
    v_row_s, v_row_sp = model.s_rows(v, v_row)
    child_ratio = _child_ratio(model, values, n_cells)
    y = model.target_values[values[model.target]]
    return Cells(y, v_row, values[v], v_row_s, v_row_sp, child_ratio)


def _build_laws(
    model: CausalModel, nodes: Sequence[str], cards: Sequence[int], tables: np.ndarray
) -> np.ndarray:
    """``P(cell | arm, regime)`` of every arm of the ``(K, rows, card)`` stack ``tables``.

    One enumeration of the closure per regime gives every arm's joint, which
    is binned by cell code.  Every law is normalized, so that tables whose
    rows sum to one only within ``ROW_ATOL`` still give valid multinomials.
    """
    n_cells = math.prod(cards)
    laws = np.zeros((len(tables), len(REGIMES), n_cells))
    for row, regime in enumerate(REGIMES):
        for probs, values in enumerate_arms(model, tables, nodes, regime.forced_value):
            code = encode_rows(values, nodes, cards, probs.shape[1])
            for law, p in zip(laws[:, row], probs):
                law += np.bincount(code, weights=p, minlength=n_cells)
    return laws / laws.sum(axis=2, keepdims=True)


def _child_ratio(model: CausalModel, values: dict[str, np.ndarray], n: int) -> np.ndarray:
    """Product over the children of S other than V of ``P(x | pa, s) / P(x | pa, s')``
    at ``n`` cells; ``values`` holds a column for S and each such child and its parents."""
    ratio = np.ones(n, dtype=float)
    for x in model.children(model.sensitive):
        if x == model.intervention:
            continue
        rows = encode_rows(values, model.parents[x], model.parent_cards(x), n)
        rows_s, rows_sp = model.s_rows(x, rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio *= model.cpts[x][rows_s, values[x]] / model.cpts[x][rows_sp, values[x]]
    return ratio


def _weight_factors(cells: Cells, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(K, n_cells)`` transport factors ``P_k(v | pa)`` of the arm tables
    ``tables`` and their ``(3, K, n_cells)`` signed factors in ``REGIMES`` order:
    1, ``1/ratio - 1`` and ``ratio - 1``, with ``ratio`` the product over the
    children of S of ``P(x | pa, s) / P(x | pa, s')``.  A cell no pull can
    reach may hold an inf or NaN factor."""
    t_s, t_sp = tables[:, cells.v_row_s, cells.v_val], tables[:, cells.v_row_sp, cells.v_val]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = cells.child_ratio * t_s / t_sp
        regime = np.stack([np.ones_like(ratio), 1.0 / ratio - 1.0, ratio - 1.0])
    return tables[:, cells.v_row, cells.v_val], regime


@dataclass(frozen=True)
class InstanceTables:
    """The cells, cell laws, weight factors and weight kernel of one model and arm set.

    ``laws`` (``(K, 3, n_cells)``) and the ``_weight_factors`` ``transport``
    and ``regime`` are read-only.  ``kernel`` and ``divergences`` are made on
    first read and read-only, so a caller that never reads them never pays for them.
    """

    cells: Cells
    laws: np.ndarray
    transport: np.ndarray
    regime: np.ndarray

    @cached_property
    def kernel(self) -> np.ndarray:
        kernel = _build_kernel(self.transport, self.regime)
        kernel.flags.writeable = False
        return kernel

    @cached_property
    def divergences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The exact ``(M, D_ssp, D_sps)`` reduced from the laws and the kernel."""
        from .divergence import reduce_cell_laws  # divergence imports this module
        reduced = reduce_cell_laws(self.laws, self.kernel)
        for matrix in reduced:
            matrix.flags.writeable = False
        return reduced


# Bound of the instance-table memo: the entries it keeps, one per model and arm set.
_MEMO_TABLES = 8
_TABLES: OrderedDict[tuple, InstanceTables] = OrderedDict()


def instance_tables(model: CausalModel, arms: Sequence[Arm]) -> InstanceTables:
    """The ``InstanceTables`` of ``arms`` over ``model``'s cells, from the memo or
    built on a miss; a read set or closure over the enumeration cap raises here,
    before any pull."""
    nodes = model.read_nodes()
    cards = [model.cards[x] for x in nodes]
    n_cells, cap = math.prod(cards), enumeration_cap()
    if n_cells > cap:
        raise EnumerationTooLarge(f"{n_cells} cells over {nodes} exceeds the cap of {cap}")
    closure = model.ancestors(nodes)
    tables = np.array([arm.table for arm in arms])  # a third of np.stack's cost
    if tables.ndim != 3:
        raise ValueError("an instance needs at least one arm")
    v = model.intervention
    key = (
        tuple((x, model.cards[x], model.parents[x]) for x in closure), nodes,
        tuple(array_key(model.cpts[x]) for x in closure if x != v),
        (model.sensitive, v, model.target), array_key(model.target_values), array_key(tables),
    )
    found = _TABLES.get(key)
    if found is not None:
        _TABLES.move_to_end(key)
        return found
    laws = _build_laws(model, nodes, cards, tables)
    cells = _decode_cells(model, nodes, cards)
    transport, regime = _weight_factors(cells, tables)
    laws.flags.writeable = transport.flags.writeable = regime.flags.writeable = False
    found = _TABLES[key] = InstanceTables(cells, laws, transport, regime)
    if len(_TABLES) > _MEMO_TABLES:
        _TABLES.popitem(last=False)
    return found


def sample_batch(laws: np.ndarray, sizes: np.ndarray, rng: np.random.Generator) -> BatchSamples:
    """Draw the ``(K, 3)`` count matrix ``sizes``: the cell counts of ``sizes[j, r]``
    pulls from the law ``laws[j, r]``, every nonzero entry in one ``rng.multinomial``."""
    drawn = np.nonzero(sizes)
    return BatchSamples(drawn, rng.multinomial(sizes[drawn], laws[drawn]))


# Bound of the stored weight kernel, in bytes: past it a run is refused before
# any pull, while the oracle report, which reads only the factors, still runs.
_KERNEL_CAP_BYTES = 1 << 30


def _build_kernel(transport: np.ndarray, regime: np.ndarray) -> np.ndarray:
    """The ``(3, K, K, n_cells)`` weights of every cell: ``[r, j, k]`` weighs source
    arm ``j``'s pulls under ``REGIMES[r]`` against target arm ``k``.

    Raises ``EnumerationTooLarge`` before allocating when the kernel would
    exceed ``_KERNEL_CAP_BYTES``.  A cell no pull can reach may hold an inf or
    NaN weight.
    """
    k, n_cells = transport.shape
    size = 3 * k * k * n_cells * transport.itemsize
    if size > _KERNEL_CAP_BYTES:
        raise EnumerationTooLarge(f"the weight kernel of {k} arms over {n_cells} cells "
                                  f"needs {size} bytes, over the cap of {_KERNEL_CAP_BYTES}")
    # Stored cell-major: the weights of gathered cells then come out in the
    # (target-fastest) layout that computing them for those cells alone gives.
    # The ratios t_k / t_j, a third of the kernel, go straight into storage.
    cell_major = np.empty((3, k, n_cells, k))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = transport.T[None] / transport[:, :, None]
        np.multiply(ratio[None], regime.transpose(0, 2, 1)[:, None], out=cell_major)
    return cell_major.transpose(0, 1, 3, 2)
