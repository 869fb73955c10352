"""Max-min allocation LP: worked examples, an independent vertex oracle, rounding."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faircb.allocation as allocation
import faircb.bandit as bandit
from faircb.allocation import (
    Allocation,
    build_problem,
    cheap_arm_cap,
    costs_from_arms,
    round_counts,
    solve_maxmin,
)
from faircb.divergence import DivergenceSet
from faircb.errors import Infeasible
from faircb.model import Arm
from faircb.sweep import ALGORITHMS, run_algorithm

from helpers import BENCH_INSTANCES, fresh_python, linprog_maxmin, maxmin_vertex_value


def unit_costs(k: int) -> np.ndarray:
    return np.ones((3, k))


def random_problem(rng, k, extras=(), budget=1.2):
    ds = DivergenceSet(
        m=1.0 + rng.random((k, k)) * 3.0,
        d_ssp=0.7 + rng.random((k, k)) * 4.0,
        d_sps=0.7 + rng.random((k, k)) * 4.0,
    )
    costs = 0.5 + rng.random((3, k))
    return build_problem(ds, costs, budget, range(k), extra_constraints=extras)


def test_costs_from_arms():
    arms = (
        Arm(index=0, table=np.array([[1.0]]), cost_pull=0.0, cost_force_s=2.0, cost_force_sprime=3.0),
        Arm(index=1, table=np.array([[1.0]])),
    )
    np.testing.assert_array_equal(costs_from_arms(arms), [[0.0, 1.0], [2.0, 1.0], [3.0, 1.0]])


def test_build_problem_reciprocals_and_validation():
    ds = DivergenceSet(
        m=np.ones((3, 3)),
        d_ssp=np.full((3, 3), math.log(2.0)),
        d_sps=np.full((3, 3), 2.0),
    )
    prob = build_problem(ds, unit_costs(3), 1.0, [2])
    np.testing.assert_array_equal(prob.recip_m, np.ones((3, 3)))
    assert prob.recip_dssp[0, 0] == pytest.approx(1.4427, abs=1e-4)
    assert prob.active == (2,)
    assert prob.n_arms == 3
    with pytest.raises(ValueError):
        build_problem(ds, np.ones((2, 3)), 1.0, [0])
    with pytest.raises(ValueError):
        build_problem(ds, -unit_costs(3), 1.0, [0])
    with pytest.raises(ValueError):
        build_problem(ds, unit_costs(3), -1.0, [0])
    with pytest.raises(ValueError):
        build_problem(ds, unit_costs(3), 1.0, [])
    for out_of_range in ([0, 3], [-1], [9, 1]):
        with pytest.raises(ValueError, match="active arms"):
            build_problem(ds, unit_costs(3), 1.0, out_of_range)
    with pytest.raises(ValueError):
        build_problem(ds, unit_costs(3), 1.0, [0], extra_constraints=((np.ones(4), 1.0),))
    with pytest.raises(ValueError):
        build_problem(ds, unit_costs(3), 1.0, [0], include_outcome=False, include_fairness=False)


def test_single_arm_equalizer():
    ds = DivergenceSet(m=np.ones((1, 1)), d_ssp=np.ones((1, 1)), d_sps=np.ones((1, 1)))
    alloc = solve_maxmin(build_problem(ds, unit_costs(1), 1.0, [0]))
    assert alloc.v_star == pytest.approx(1.0 / 3.0, abs=1e-9)
    for nu in (alloc.nu_y, alloc.nu_s, alloc.nu_sp):
        assert nu[0] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_budget_below_every_cost_is_infeasible():
    ds = DivergenceSet(m=np.ones((2, 2)), d_ssp=np.ones((2, 2)), d_sps=np.ones((2, 2)))
    with pytest.raises(Infeasible):
        solve_maxmin(build_problem(ds, 5.0 * unit_costs(2), 1.0, [0, 1]))


@pytest.mark.parametrize("passed, status, message", [
    ("kError", "kOptimal", "HiGHS rejected the allocation LP"),
    ("kOk", "kTimeLimit", "LP solve failed: Time limit reached"),
])
def test_solve_maxmin_raises_when_highs_does_not_solve(monkeypatch, passed, status, message):
    highs = allocation._highs
    real = highs._Highs()

    class StubHighs:
        """Takes the LP and reports the given pass status, then the given model status."""

        def passOptions(self, options):
            pass

        def passModel(self, lp):
            return getattr(highs.HighsStatus, passed)

        def run(self):
            pass

        def getModelStatus(self):
            return getattr(highs.HighsModelStatus, status)

        def modelStatusToString(self, model_status):
            return real.modelStatusToString(model_status)

    monkeypatch.setattr(highs, "_Highs", StubHighs)
    ds = DivergenceSet(m=np.ones((2, 2)), d_ssp=np.ones((2, 2)), d_sps=np.ones((2, 2)))
    with pytest.raises(RuntimeError, match=message):
        solve_maxmin(build_problem(ds, unit_costs(2), 1.0, [0, 1]))


@pytest.mark.parametrize("seed", range(8))
def test_matches_vertex_enumeration_oracle(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    extras = (cheap_arm_cap(k, 0, 400),) if seed % 2 else ()
    prob = random_problem(rng, k, extras)
    expected = maxmin_vertex_value(prob)
    if expected is None:
        with pytest.raises(Infeasible):
            solve_maxmin(prob)
    else:
        assert solve_maxmin(prob).v_star == pytest.approx(expected, abs=2e-3)


def test_matches_vertex_oracle_k3():
    prob = random_problem(np.random.default_rng(99), 3)
    assert solve_maxmin(prob).v_star == pytest.approx(maxmin_vertex_value(prob), abs=2e-3)


def test_scaling_matrices_scales_value():
    rng = np.random.default_rng(11)
    prob = random_problem(rng, 2, budget=2.0)
    base = solve_maxmin(prob).v_star
    lam = 3.7
    scaled = build_problem(
        DivergenceSet(
            m=lam / prob.recip_m, d_ssp=lam / prob.recip_dssp, d_sps=lam / prob.recip_dsps
        ),
        prob.costs,
        prob.budget,
        prob.active,
    )
    assert solve_maxmin(scaled).v_star == pytest.approx(base / lam, abs=1e-9)


def test_value_monotone_in_active_set_and_budget():
    rng = np.random.default_rng(23)
    ds = DivergenceSet(
        m=1.0 + rng.random((3, 3)) * 3.0,
        d_ssp=0.7 + rng.random((3, 3)) * 4.0,
        d_sps=0.7 + rng.random((3, 3)) * 4.0,
    )
    costs = 0.5 + rng.random((3, 3))
    values = [
        solve_maxmin(build_problem(ds, costs, 1.5, active))
        for active in ([0], [0, 1], [0, 1, 2])
    ]
    assert values[0].v_star >= values[1].v_star - 1e-9 >= values[2].v_star - 2e-9
    by_budget = [
        solve_maxmin(build_problem(ds, costs, b, [0, 1, 2])).v_star
        for b in (0.8, 1.0, 1.5, 2.5)
    ]
    assert all(lo <= hi + 1e-9 for lo, hi in zip(by_budget, by_budget[1:]))


def test_disabled_blocks_pin_fractions_to_zero():
    prob_outcome = random_problem(np.random.default_rng(5), 2)
    stage1 = build_problem(
        DivergenceSet(m=1 / prob_outcome.recip_m, d_ssp=1 / prob_outcome.recip_dssp,
                      d_sps=1 / prob_outcome.recip_dsps),
        prob_outcome.costs, prob_outcome.budget, prob_outcome.active,
        include_fairness=False,
    )
    alloc = solve_maxmin(stage1)
    np.testing.assert_array_equal(alloc.nu_s, 0.0)
    np.testing.assert_array_equal(alloc.nu_sp, 0.0)
    assert alloc.nu_y.sum() == pytest.approx(1.0, abs=1e-9)
    stage2 = build_problem(
        DivergenceSet(m=1 / prob_outcome.recip_m, d_ssp=1 / prob_outcome.recip_dssp,
                      d_sps=1 / prob_outcome.recip_dsps),
        prob_outcome.costs, prob_outcome.budget, prob_outcome.active,
        include_outcome=False,
    )
    alloc2 = solve_maxmin(stage2)
    np.testing.assert_array_equal(alloc2.nu_y, 0.0)
    assert (alloc2.nu_s + alloc2.nu_sp).sum() == pytest.approx(1.0, abs=1e-9)


def test_cheap_arm_cap_binds():
    # Arm 0 is informative for nobody, the others are, so the optimum wants
    # to spend off the cheap arm and the cap pins that spend.
    k, T = 3, 400
    m = np.full((k, k), 8.0)
    m[:, 1:] = 1.0
    np.fill_diagonal(m, 1.0)
    ds = DivergenceSet(m=m, d_ssp=m.copy(), d_sps=m.copy())
    coeffs, ub = cheap_arm_cap(k, 0, T)
    assert ub == pytest.approx((1.0 - 1e-12) / math.sqrt(T), rel=1e-15)
    np.testing.assert_array_equal(coeffs[[0, k, 2 * k]], 0.0)
    free = solve_maxmin(build_problem(ds, unit_costs(k), 1.0, range(k)))
    capped = solve_maxmin(
        build_problem(ds, unit_costs(k), 1.0, range(k), extra_constraints=((coeffs, ub),))
    )
    off_cheap = capped.nu_y[1:].sum() + capped.nu_s[1:].sum() + capped.nu_sp[1:].sum()
    assert off_cheap == pytest.approx(ub, abs=1e-9)
    assert capped.v_star < free.v_star - 0.1


@pytest.mark.parametrize("T", [0, -4])
def test_cheap_arm_cap_rejects_a_budget_below_one(T):
    with pytest.raises(ValueError, match="T >= 1"):
        cheap_arm_cap(3, 0, T)


def test_allocation_invariants_on_random_problems():
    rng = np.random.default_rng(31)
    for _ in range(10):
        prob = random_problem(rng, int(rng.integers(1, 4)), budget=2.5)
        alloc = solve_maxmin(prob)
        total = alloc.nu_y.sum() + alloc.nu_s.sum() + alloc.nu_sp.sum()
        assert total == pytest.approx(1.0, abs=1e-9)
        spend = (
            prob.costs[0] @ alloc.nu_y + prob.costs[1] @ alloc.nu_s + prob.costs[2] @ alloc.nu_sp
        )
        assert spend <= prob.budget + 1e-9
        assert np.all(alloc.nu_y >= 0) and np.all(alloc.nu_s >= 0) and np.all(alloc.nu_sp >= 0)
        for k in prob.active:
            assert prob.recip_m[k] @ alloc.nu_y >= alloc.v_star - 1e-12
            assert prob.recip_dsps[k] @ alloc.nu_s >= alloc.v_star - 1e-12
            assert prob.recip_dssp[k] @ alloc.nu_sp >= alloc.v_star - 1e-12


def assert_same_solution(problem) -> None:
    """``solve_maxmin`` and the ``linprog`` reference agree bit for bit, or both raise."""
    try:
        expected = linprog_maxmin(problem)
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_maxmin(problem)
        return
    got = solve_maxmin(problem)
    for name in ("nu_y", "nu_s", "nu_sp"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    assert got.v_star == expected.v_star


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_maxmin_matches_linprog_bit_for_bit(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = data.draw(st.integers(1, 8))
    active = sorted(rng.choice(k, size=data.draw(st.integers(1, k)), replace=False))
    rule = data.draw(st.sampled_from(["joint", "fairness", "outcome"]))
    extras = []
    if data.draw(st.booleans()):
        extras.append(cheap_arm_cap(k, data.draw(st.integers(0, k - 1)), data.draw(st.integers(1, 10**4))))
    # Budgets down to below the cheapest pull, where the LP is infeasible.
    budget = data.draw(st.floats(0.2, 2.5))
    ds = DivergenceSet(
        m=1.0 + rng.random((k, k)) * 3.0,
        d_ssp=0.7 + rng.random((k, k)) * 40.0,
        d_sps=0.7 + rng.random((k, k)) * 40.0,
    )
    assert_same_solution(build_problem(
        ds, 0.5 + rng.random((3, k)), budget, active, extras,
        include_outcome=rule != "fairness", include_fairness=rule != "outcome",
    ))


def bench_problems(name: str, monkeypatch) -> list:
    """Every problem that seeded runs of every algorithm solve on a benchmark instance."""
    instance = BENCH_INSTANCES[name]()
    divergences = DivergenceSet.exact(instance.model, instance.arms)
    problems = []
    with monkeypatch.context() as patch:
        patch.setattr(bandit, "solve_maxmin", lambda p: problems.append(p) or solve_maxmin(p))
        bandit._SOLVED.clear()
        for seed, algorithm in enumerate(ALGORITHMS):
            run_algorithm(instance, algorithm, 3000, np.random.default_rng(seed), divergences=divergences)
    assert len(problems) > 5
    return problems


@pytest.mark.parametrize("name", sorted(BENCH_INSTANCES))
def test_solve_maxmin_matches_linprog_on_the_bench_problems(name, monkeypatch):
    for problem in bench_problems(name, monkeypatch):
        assert_same_solution(problem)


def test_solve_maxmin_is_bit_identical_through_the_package_import(tmp_path, monkeypatch):
    # An empty directory ahead of scipy's own in scipy.__path__ leaves the
    # direct HiGHS load no file to find, so allocation falls back to importing
    # it through scipy.optimize.
    problems = [p for name in sorted(BENCH_INSTANCES) for p in bench_problems(name, monkeypatch)]
    (tmp_path / "problems.pkl").write_bytes(pickle.dumps(problems))
    (tmp_path / "empty").mkdir()
    done = fresh_python(
        "import pickle, sys\n"
        "import scipy\n"
        "scipy.__path__.insert(0, sys.argv[2])\n"
        "from faircb.allocation import solve_maxmin\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "with open(sys.argv[1], 'rb') as f:\n"
        "    problems = pickle.load(f)\n"
        "with open(sys.argv[1], 'wb') as f:\n"
        "    pickle.dump([solve_maxmin(p) for p in problems], f)\n",
        str(tmp_path / "problems.pkl"), str(tmp_path / "empty"),
    )
    assert done.returncode == 0, done.stderr
    fallback = pickle.loads((tmp_path / "problems.pkl").read_bytes())
    for problem, got in zip(problems, fallback, strict=True):
        want = solve_maxmin(problem)
        for name in ("nu_y", "nu_s", "nu_sp"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.v_star == want.v_star


def test_round_counts_worked_examples():
    third = Allocation(
        nu_y=np.array([1 / 3]), nu_s=np.array([1 / 3]), nu_sp=np.array([1 / 3]), v_star=1 / 3
    )
    rounded = round_counts(third, 3)
    assert (rounded.tau_y[0], rounded.tau_s[0], rounded.tau_sp[0]) == (1, 1, 1)
    halves = Allocation(
        nu_y=np.array([0.5]), nu_s=np.array([0.5]), nu_sp=np.array([0.0]), v_star=0.0
    )
    rounded = round_counts(halves, 5)
    assert (rounded.tau_y[0], rounded.tau_s[0], rounded.tau_sp[0]) == (3, 2, 0)
    # A zero-length phase pulls nothing; a negative length is refused.
    rounded = round_counts(third, 0)
    assert (rounded.tau_y[0], rounded.tau_s[0], rounded.tau_sp[0]) == (0, 0, 0)
    assert rounded.tau_y.dtype == np.int64
    with pytest.raises(ValueError, match="tau must be >= 0"):
        round_counts(third, -1)


def test_round_counts_largest_remainder_properties():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        raw = rng.random(3 * k)
        raw /= raw.sum()
        alloc = Allocation(nu_y=raw[:k], nu_s=raw[k : 2 * k], nu_sp=raw[2 * k :], v_star=0.0)
        tau = 997
        rounded = round_counts(alloc, tau)
        counts = np.concatenate([rounded.tau_y, rounded.tau_s, rounded.tau_sp])
        assert counts.sum() == tau
        assert np.all(counts >= 0)
        assert np.max(np.abs(counts - raw * tau)) < 1.0
        assert np.all(counts[raw >= 1.0 / tau] >= 1)


def split(fractions: np.ndarray) -> Allocation:
    k = fractions.size // 3
    return Allocation(
        nu_y=fractions[:k], nu_s=fractions[k : 2 * k], nu_sp=fractions[2 * k :], v_star=0.0
    )


def stacked_counts(rounded: Allocation) -> np.ndarray:
    return np.concatenate([rounded.tau_y, rounded.tau_s, rounded.tau_sp])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_round_counts_ignore_last_bit_noise(data):
    # Fractions w / sum(w) over small integer weights: equal weights make
    # exact ties, and no target lies within a few ulps of a rounding edge.
    k = data.draw(st.integers(1, 4))
    weights = np.array(data.draw(st.lists(st.integers(0, 9), min_size=3 * k, max_size=3 * k)))
    if not weights.any():
        weights[-1] = 1
    tau = data.draw(st.integers(1, 2000))
    fractions = weights / weights.sum()
    noisy = fractions.copy()
    for i in range(3 * k):
        for _ in range(data.draw(st.integers(0, 3))):
            noisy[i] = np.nextafter(noisy[i], data.draw(st.sampled_from([0.0, 1.0])))
    noisy /= noisy.sum()
    counts = stacked_counts(round_counts(split(fractions), tau))
    np.testing.assert_array_equal(stacked_counts(round_counts(split(noisy), tau)), counts)
    assert counts.sum() == tau
    assert np.all(np.abs(counts - fractions * tau) < 1.0)
    # Of two equal weights, the higher index never gets the larger count.
    for i in range(3 * k):
        for j in range(i + 1, 3 * k):
            if weights[i] == weights[j]:
                assert counts[i] >= counts[j]


def test_rounded_counts_keep_precision_slack():
    rng = np.random.default_rng(41)
    for _ in range(5):
        k = 3
        # Divergence-like scales: outcome cutoffs >= 1, fairness cutoffs >= 1.
        ds = DivergenceSet(
            m=1.0 + rng.random((k, k)) * 3.0,
            d_ssp=1.0 + rng.random((k, k)) * 4.0,
            d_sps=1.0 + rng.random((k, k)) * 4.0,
        )
        prob = build_problem(ds, 0.5 + rng.random((3, k)), 2.0, range(k))
        alloc = round_counts(solve_maxmin(prob), 200)
        for arm in prob.active:
            assert prob.recip_m[arm] @ alloc.tau_y / 200 >= alloc.v_star - k / 200
            assert prob.recip_dsps[arm] @ alloc.tau_s / 200 >= alloc.v_star - k / 200
            assert prob.recip_dssp[arm] @ alloc.tau_sp / 200 >= alloc.v_star - k / 200
