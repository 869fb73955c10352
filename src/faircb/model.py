"""Discrete causal models with a sensitive attribute, an intervention node and a target.

A model is a DAG over finitely supported variables.  Node values are integer
coded as ``0 .. card - 1``.  The sensitive node ``S`` is parentless and binary;
its value ``0`` is written ``s`` and its value ``1`` is written ``s'``.  Arms
are alternative conditional tables for the intervention node ``V``.  The target
``Y`` carries a numeric encoding of each support value into ``[0, 1]``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Regime",
    "REGIMES",
    "CausalModel",
    "Arm",
    "Instance",
    "check_fairness_eps",
    "ValidationReport",
    "validate_model",
    "S_VALUE",
    "SPRIME_VALUE",
    "array_key",
    "lru_get",
    "radix_strides",
    "encode_rows",
    "decode_rows",
]

S_VALUE = 0
SPRIME_VALUE = 1

ROW_ATOL = 1e-9


class Regime(Enum):
    """How the sensitive attribute is handled during a pull."""

    OBSERVATIONAL = "observational"
    FORCE_S = "force-s"
    FORCE_SPRIME = "force-sprime"

    @property
    def forced_value(self) -> int | None:
        if self is Regime.FORCE_S:
            return S_VALUE
        if self is Regime.FORCE_SPRIME:
            return SPRIME_VALUE
        return None


# Every regime in the row order of ``allocation.costs_from_arms`` (pull,
# force-s, force-s').  A tuple, since a pass over the enum itself costs about
# 1.8 us against 0.1 us (Python 3.11) and the phase loop makes one per arm.
REGIMES = tuple(Regime)


def array_key(array) -> tuple:
    """Shape, dtype and bytes of ``array``: a key for memos keyed on content, not identity."""
    array = np.asarray(array)
    return array.shape, array.dtype.str, array.tobytes()


def lru_get(memo: OrderedDict, key: tuple, make: Callable[[], object], bound: int):
    """``memo[key]``, marked most recently used; on a miss ``make()`` is stored
    there first, and past ``bound`` entries the least recently used go."""
    found = memo.get(key)
    if found is not None:
        memo.move_to_end(key)
        return found
    found = memo[key] = make()
    while len(memo) > bound:
        memo.popitem(last=False)
    return found


def radix_strides(cards: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides over ``cards``: the first position varies slowest."""
    strides, acc = [], 1
    for c in reversed(cards):
        strides.append(acc)
        acc *= c
    return tuple(reversed(strides))


def encode_rows(
    values: dict[str, np.ndarray], nodes: Sequence[str], cards: Sequence[int], n: int
) -> np.ndarray:
    """Row-major code of ``n`` entries from the values of ``nodes`` with ``cards``:
    a table row given a node's parents, or a cell given the read nodes."""
    rows = np.zeros(n, dtype=np.int64)
    for x, st in zip(nodes, radix_strides(cards)):
        rows += values[x] * st
    return rows


def decode_rows(codes: np.ndarray, nodes: Sequence[str], cards: Sequence[int]) -> dict[str, np.ndarray]:
    """The values of ``nodes`` at each row-major code in ``codes``: ``encode_rows`` inverted."""
    return {x: codes // st % c for x, c, st in zip(nodes, cards, radix_strides(cards))}


def _as_table(x: Sequence | np.ndarray) -> np.ndarray:
    t = np.asarray(x, dtype=float)
    if t.ndim == 1:
        t = t[None, :]
    if t.ndim != 2:
        raise ValueError(f"conditional table must be 2-d, got shape {t.shape}")
    return t


@dataclass
class CausalModel:
    """A discrete causal DAG with designated sensitive, intervention and target nodes.

    ``cpts[x]`` has shape ``(n_rows(x), card[x])`` with one row per parent
    assignment, rows keyed in row-major order of the declared parent tuple.
    """

    nodes: tuple[str, ...]
    cards: dict[str, int]
    parents: dict[str, tuple[str, ...]]
    cpts: dict[str, np.ndarray]
    sensitive: str
    intervention: str
    target: str
    target_values: np.ndarray  # encoding of each target support value into [0, 1]

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        self.parents = {x: tuple(ps) for x, ps in self.parents.items()}
        self.cpts = {x: _as_table(t) for x, t in self.cpts.items()}
        self.target_values = np.asarray(self.target_values, dtype=float)

    # -- structure helpers -------------------------------------------------

    def parent_cards(self, node: str) -> tuple[int, ...]:
        return tuple(self.cards[p] for p in self.parents[node])

    def n_rows(self, node: str) -> int:
        return math.prod(self.parent_cards(node))

    def row_strides(self, node: str) -> tuple[int, ...]:
        """Row-major strides over the parent tuple of ``node``."""
        return radix_strides(self.parent_cards(node))

    def s_rows(self, node: str, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``rows`` of ``node``'s table with the S slot set to s, then to s' (so the
        pair is indexed by S's value); ``rows`` itself twice when S is not a parent."""
        ps = self.parents[node]
        if self.sensitive not in ps:
            return rows, rows
        st = self.row_strides(node)[ps.index(self.sensitive)]
        base = rows - rows // st % self.cards[self.sensitive] * st
        return base + S_VALUE * st, base + SPRIME_VALUE * st

    def children(self, node: str) -> tuple[str, ...]:
        """The nodes that list ``node`` as a parent, in declared order, once per listing."""
        return tuple(x for x in self.nodes for p in self.parents.get(x, ()) if p == node)

    def read_nodes(self) -> tuple[str, ...]:
        """The nodes a pull's estimates read, in cell-code order: V's parents, V
        and Y, then each child of S other than V and its parents, each once."""
        s, v = self.sensitive, self.intervention
        read = [*self.parents[v], v, self.target]
        for x in self.children(s):
            if x != v:
                read += [x, *self.parents[x]]
        return tuple(dict.fromkeys(read))

    def topological_order(self) -> tuple[str, ...]:
        """Kahn order, stable in declared node order.  Raises on a cycle."""
        return self._kahn(self.nodes)

    def ancestors(self, targets: Iterable[str]) -> tuple[str, ...]:
        """Ancestral closure of ``targets`` (inclusive), in topological order."""
        want = set(targets)
        stack = list(want)
        while stack:
            x = stack.pop()
            for p in self.parents.get(x, ()):
                if p not in want:
                    want.add(p)
                    stack.append(p)
        # On a set closed under parents the stable pass is the full order
        # with the other nodes left out.
        return self._kahn([x for x in self.nodes if x in want])

    def _kahn(self, nodes: Sequence[str]) -> tuple[str, ...]:
        """Kahn order of ``nodes``, stable in their given order.  Raises on a cycle."""
        indeg = {x: len(self.parents.get(x, ())) for x in nodes}
        kids: dict[str, list[str]] = {x: [] for x in nodes}
        for x in nodes:
            for p in self.parents.get(x, ()):
                if p in kids:
                    kids[p].append(x)
        order = [x for x in nodes if indeg[x] == 0]
        for x in order:  # a FIFO queue: the loop reaches what it appends
            for c in kids[x]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
        if len(order) != len(nodes):
            raise ValueError("graph has a cycle")
        return tuple(order)


@dataclass
class Arm:
    """A soft intervention: an alternative conditional table for the intervention node."""

    index: int
    table: np.ndarray  # shape (n_rows(V), card[V])
    cost_pull: float = 1.0
    cost_force_s: float = 1.0
    cost_force_sprime: float = 1.0

    def __post_init__(self) -> None:
        self.table = _as_table(self.table)


@dataclass
class Instance:
    """A model together with its candidate arms and run-level conventions."""

    model: CausalModel
    arms: tuple[Arm, ...]
    name: str = ""
    cheap_arm_constraint: bool = False
    observed: tuple[str, ...] | None = None
    fairness_eps: float | None = None

    def __post_init__(self) -> None:
        self.arms = tuple(self.arms)
        if self.observed is not None:
            self.observed = tuple(self.observed)

    @property
    def n_arms(self) -> int:
        return len(self.arms)


def check_fairness_eps(eps) -> float:
    """``eps`` as a float; raises ``ValueError`` unless it is a positive finite number.

    A tolerance of zero or below, or NaN, certifies no arm fair and an
    infinite one certifies every arm, so no run could find anything.
    """
    if isinstance(eps, bool) or not isinstance(eps, Real) or not 0.0 < eps < math.inf:
        raise ValueError(f"fairness_eps must be a positive finite number, got {eps!r}")
    return float(eps)


@dataclass
class ValidationReport:
    ok: bool
    problems: tuple[str, ...] = ()


def _stack_by_card(tables: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The rows of the 2-d ``tables``, stacked in order per column count.  A
    row's sum over its stack has the bits of its sum within its own table."""
    groups: dict[int, list[np.ndarray]] = {}
    for table in tables:
        groups.setdefault(table.shape[1], []).append(table)
    return [np.concatenate(group) for group in groups.values()]


def _row_faults(table: np.ndarray) -> tuple[bool, np.ndarray]:
    """What makes the rows of a table (or of a card group) invalid: whether
    any entry is negative, and which rows do not sum to one within ROW_ATOL."""
    return bool(np.any(table < 0.0)), np.abs(table.sum(axis=1) - 1.0) > ROW_ATOL


def _tables_hold(tables: Sequence[np.ndarray], n_rows: Sequence[int], cards: Sequence[int]) -> bool:
    """Whether ``_row_problems`` finds nothing in any table, at one
    ``_row_faults`` call per card group."""
    if any(t.shape != (n, c) for t, n, c in zip(tables, n_rows, cards)):
        return False
    faults = map(_row_faults, _stack_by_card(tables))
    return not any(negative or bad.any() for negative, bad in faults)


def _row_problems(name: str, table: np.ndarray, n_rows: int, card: int) -> list[str]:
    out: list[str] = []
    if table.shape != (n_rows, card):
        out.append(f"{name}: table shape {table.shape} != ({n_rows}, {card})")
        return out
    negative, bad = _row_faults(table)
    if negative:
        out.append(f"{name}: negative entries")
    if np.any(bad):
        out.append(f"{name}: rows {np.flatnonzero(bad).tolist()} do not sum to 1")
    return out


def validate_model(model: CausalModel, arms: Sequence[Arm] = ()) -> ValidationReport:
    """Structural and probabilistic checks for a model and its arms."""
    problems: list[str] = []

    if len(set(model.nodes)) != len(model.nodes):
        problems.append("duplicate node ids")
    for x in model.nodes:
        parents = model.parents.get(x, ())
        for i, p in enumerate(parents):
            if p not in model.cards:
                problems.append(f"{x}: unknown parent {p!r}")
            if p == x:
                problems.append(f"{x}: is its own parent")
            if p in parents[:i]:
                problems.append(f"{x}: parent {p!r} listed twice")
    for x in model.nodes:
        if x not in model.parents:
            problems.append(f"{x}: missing parent declaration")
        if x not in model.cpts:
            problems.append(f"{x}: missing conditional table")
        if model.cards.get(x, 0) < 1:
            problems.append(f"{x}: support must be nonempty")
    if problems:
        return ValidationReport(False, tuple(problems))

    try:
        model.topological_order()
    except ValueError as exc:
        return ValidationReport(False, (str(exc),))

    n_rows = [model.n_rows(x) for x in model.nodes]
    cards = [model.cards[x] for x in model.nodes]
    if not _tables_hold([model.cpts[x] for x in model.nodes], n_rows, cards):
        for x, n, card in zip(model.nodes, n_rows, cards):
            problems.extend(_row_problems(x, model.cpts[x], n, card))

    for designated, label in (
        (model.sensitive, "sensitive"),
        (model.intervention, "intervention"),
        (model.target, "target"),
    ):
        if designated not in model.cards:
            problems.append(f"{label} node {designated!r} is not in the model")
    if model.sensitive in model.cards:
        if model.cards[model.sensitive] != 2:
            problems.append("sensitive node must be binary")
        if model.parents.get(model.sensitive, ()):
            problems.append("sensitive node must be parentless")
    if model.target in model.cards:
        if model.target_values.shape != (model.cards[model.target],):
            problems.append("target encoding length does not match the target support")
        elif np.any((model.target_values < 0.0) | (model.target_values > 1.0)):
            problems.append("target encoding must lie in [0, 1]")

    if problems:
        return ValidationReport(False, tuple(problems))

    v = model.intervention
    n_rows_v, card_v = model.n_rows(v), model.cards[v]
    arms_hold = _tables_hold([a.table for a in arms], [n_rows_v] * len(arms), [card_v] * len(arms))
    for position, arm in enumerate(arms):
        # A run pulls, pools and reports arm j as row j of its count matrix.
        if arm.index != position:
            problems.append(f"arm {arm.index}: index differs from its position {position}")
        if not arms_hold:
            problems.extend(_row_problems(f"arm {arm.index}", arm.table, n_rows_v, card_v))
        for c in (arm.cost_pull, arm.cost_force_s, arm.cost_force_sprime):
            if not 0.0 <= c < math.inf:
                problems.append(f"arm {arm.index}: cost {c} is not finite and nonnegative")

    if arms and not problems:
        # Importance ratios between arms need a shared zero pattern per row.
        pattern = arms[0].table > 0.0
        for arm in arms[1:]:
            if not np.array_equal(arm.table > 0.0, pattern):
                problems.append(f"arm {arm.index}: zero pattern differs from arm {arms[0].index}")

    # Counterfactual reweighting across s and s' needs matching support in
    # every child of the sensitive node, including each arm's table when the
    # intervention node is such a child.
    for x in model.children(model.sensitive):
        rows_s, rows_sp = model.s_rows(x, np.arange(model.n_rows(x)))
        tables = [(x, model.cpts[x])] if x != v else [(f"arm {a.index}", a.table) for a in arms]
        for name, table in tables:
            if not np.array_equal(table[rows_s] > 0.0, table[rows_sp] > 0.0):
                problems.append(f"{name}: support differs between s and s' rows")

    return ValidationReport(not problems, tuple(problems))
