"""Model structure, validation and the s/s' conventions."""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircb import model as model_module
from faircb.model import (
    Arm,
    CausalModel,
    Regime,
    S_VALUE,
    SPRIME_VALUE,
    lru_get,
    validate_model,
)

from helpers import chain_model, random_instance, side_child_model


def test_s_conventions():
    assert S_VALUE == 0 and SPRIME_VALUE == 1
    assert Regime.FORCE_S.forced_value == 0
    assert Regime.FORCE_SPRIME.forced_value == 1
    assert Regime.OBSERVATIONAL.forced_value is None


def test_row_indexing_is_row_major():
    model, _ = side_child_model()
    assert model.row_strides("Y") == (2, 1)
    assert model.n_rows("Y") == 4
    assert model.n_rows("S") == 1


def test_topological_order_and_ancestors():
    model, _ = side_child_model()
    order = model.topological_order()
    assert order.index("S") < order.index("V") < order.index("Y")
    assert model.ancestors(["Y"]) == order
    assert model.ancestors(["V"]) == ("S", "V")
    assert model.children("S") == ("V", "W")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_graph_walks_on_random_dags(data):
    # Node i may have parents among nodes 0 .. i-1; the model declares the
    # nodes, and each parent tuple, in a shuffled order.
    n = data.draw(st.integers(1, 9))
    names = [f"X{i}" for i in range(n)]
    parents = {
        names[i]: tuple(data.draw(st.permutations(
            [names[j] for j in range(i) if data.draw(st.booleans())])))
        for i in range(n)
    }
    declared = tuple(data.draw(st.permutations(names)))
    model = CausalModel(declared, dict.fromkeys(names, 2), parents, {}, "", "", "", [])
    order = model.topological_order()
    assert sorted(order) == sorted(names)
    assert all(order.index(p) < order.index(x) for x in names for p in parents[x])
    for x in names:
        assert model.children(x) == tuple(c for c in declared if x in parents[c])
    targets = data.draw(st.lists(st.sampled_from(names), max_size=3))
    closure = set(targets)
    while more := {p for x in closure for p in parents[x]} - closure:
        closure |= more
    assert model.ancestors(targets) == tuple(x for x in order if x in closure)


def test_cycle_detected():
    model = CausalModel(
        nodes=("A", "B"),
        cards={"A": 2, "B": 2},
        parents={"A": ("B",), "B": ("A",)},
        cpts={"A": np.full((2, 2), 0.5), "B": np.full((2, 2), 0.5)},
        sensitive="A",
        intervention="B",
        target="B",
        target_values=np.array([0.0, 1.0]),
    )
    with pytest.raises(ValueError, match="cycle"):
        model.topological_order()
    assert not validate_model(model).ok


def test_validate_passes_on_fixtures():
    for build in (chain_model, side_child_model):
        model, arms = build()
        report = validate_model(model, arms)
        assert report.ok and not report.problems


def test_validate_rejects_bad_rows():
    model, arms = chain_model()
    model.cpts["V"] = np.array([[0.5, 0.3, 0.3], [0.2, 0.5, 0.3]])
    report = validate_model(model, arms)
    assert not report.ok
    assert any("sum to 1" in p for p in report.problems)


def test_validate_rejects_nonbinary_or_parented_sensitive():
    model, arms = chain_model()
    model.cards["S"] = 3
    model.cpts["S"] = np.array([[0.2, 0.3, 0.5]])
    model.cpts["V"] = np.vstack([model.cpts["V"], [[0.3, 0.4, 0.3]]])
    for arm in arms:
        arm.table = np.vstack([arm.table, [[0.3, 0.4, 0.3]]])
    assert any("binary" in p for p in validate_model(model, arms).problems)

    model2, arms2 = chain_model()
    model2.nodes = ("R",) + model2.nodes
    model2.cards["R"] = 2
    model2.parents["R"] = ()
    model2.parents["S"] = ("R",)
    model2.cpts["R"] = np.array([[0.5, 0.5]])
    model2.cpts["S"] = np.full((2, 2), 0.5)
    assert any("parentless" in p for p in validate_model(model2, arms2).problems)


def test_validate_rejects_mismatched_zero_pattern():
    model, arms = chain_model()
    arms[1].table = np.array([[0.7, 0.3, 0.0], [0.1, 0.3, 0.6]])
    report = validate_model(model, arms)
    assert not report.ok
    assert any("zero pattern" in p for p in report.problems)


def test_validate_rejects_bad_target_encoding():
    model, arms = chain_model()
    model.target_values = np.array([0.0, 1.5])
    assert any("[0, 1]" in p for p in validate_model(model, arms).problems)
    model.target_values = np.array([0.0])
    assert any("length" in p for p in validate_model(model, arms).problems)


def test_validate_rejects_negative_cost():
    for cost in (-1.0, math.nan, math.inf):
        model, arms = chain_model()
        arms[0].cost_pull = cost
        problem = f"arm 0: cost {cost} is not finite and nonnegative"
        assert problem in validate_model(model, arms).problems


def test_tables_are_promoted_to_two_dimensions():
    assert Arm(0, [0.25, 0.75]).table.shape == (1, 2)
    with pytest.raises(ValueError, match=r"must be 2-d, got shape \(1, 1, 2\)"):
        Arm(0, [[[0.25, 0.75]]])


def test_validate_rejects_negative_entries():
    model, arms = chain_model()
    model.cpts["Y"] = np.array([[1.2, -0.2], [0.5, 0.5], [0.1, 0.9]])
    assert validate_model(model, arms).problems == ("Y: negative entries",)


def test_lru_get_makes_on_a_miss_and_evicts_the_least_recently_used():
    memo, made = OrderedDict(), []

    def get(key):
        return lru_get(memo, key, lambda: made.append(key) or key.upper(), 2)

    assert [get("a"), get("b"), get("a")] == ["A", "B", "A"]
    assert made == ["a", "b"] and list(memo) == ["b", "a"]
    assert get("c") == "C" and list(memo) == ["a", "c"]
    assert get("b") == "B" and made == ["a", "b", "c", "b"] and list(memo) == ["c", "b"]


def test_validate_names_each_bad_arm_table():
    model, arms = chain_model()
    arms[0].table = np.array([[0.7, -0.2, 0.5], [0.8, -0.1, 0.3]])
    arms[2].table = np.array([[0.2, 0.3, 0.5], [0.5, 0.5, 0.5]])
    assert validate_model(model, arms).problems == (
        "arm 0: negative entries",
        "arm 2: rows [1] do not sum to 1",
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_rows_keep_their_sums(seed):
    # Rows of equal length sum to the same bits stacked as in their own
    # table, short rows and rows long enough for pairwise summation alike.
    rng = np.random.default_rng(seed)
    tables = [rng.random((int(rng.integers(1, 6)), int(card))) for card in rng.choice([1, 2, 3, 9, 130, 300], 7)]
    stacks = model_module._stack_by_card(tables)
    cards = list(dict.fromkeys(t.shape[1] for t in tables))
    assert len(stacks) == len(cards)
    for card, stacked in zip(cards, stacks):
        members = [t for t in tables if t.shape[1] == card]
        assert stacked.tobytes() == np.concatenate(members).tobytes()
        by_table = np.concatenate([t.sum(axis=1) for t in members])
        assert stacked.sum(axis=1).tobytes() == by_table.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    edits=st.lists(st.tuples(st.integers(0, 9), st.sampled_from(
        ["negative", "scale", "nudge", "nan", "widen", "drop row", "zero"])), max_size=3),
)
def test_card_group_checks_find_what_the_table_checks_find(seed, edits):
    # validate_model checks the tables one card group at a time and asks
    # each table only when a group fails: the group check must pass exactly
    # when no table check finds a problem.
    inst = random_instance(np.random.default_rng(seed))
    model = inst.model
    tables = [model.cpts[x].copy() for x in model.nodes] + [a.table.copy() for a in inst.arms]
    n_rows = [model.n_rows(x) for x in model.nodes] + [model.n_rows("V")] * inst.n_arms
    cards = [model.cards[x] for x in model.nodes] + [model.cards["V"]] * inst.n_arms
    for at, edit in edits:
        i = at % len(tables)
        t = tables[i]
        if not t.size:  # a row dropped from a one-row table
            continue
        if edit == "negative":
            t[0, 0] = -abs(t[0, 0]) - 1e-12
        elif edit == "scale":
            t[-1] *= 1.5
        elif edit == "nudge":  # well inside ROW_ATOL, then just outside it
            t[0, -1] += 1e-10 if at % 2 else 2e-9
        elif edit == "nan":
            t[0, 0] = np.nan
        elif edit == "widen":
            tables[i] = np.hstack([t, np.zeros((t.shape[0], 1))])
        elif edit == "drop row":
            tables[i] = t[:-1]
        else:
            t[0] = 0.0
    found = [p for t, n, c in zip(tables, n_rows, cards) for p in model_module._row_problems("t", t, n, c)]
    assert model_module._tables_hold(tables, n_rows, cards) == (not found)
