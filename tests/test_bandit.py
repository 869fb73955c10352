"""Phase schedule, elimination clauses, and full successive-rejection runs."""

from __future__ import annotations

import hashlib
import json
import math
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faircb.bandit as bandit
import faircb.sampling as sampling
from faircb.allocation import cheap_arm_cap, costs_from_arms, round_counts
from faircb.bandit import phase_schedule, prepare, run_csr, run_two_stage
from faircb.divergence import DivergenceSet
from faircb.errors import EnumerationTooLarge, Infeasible
from faircb.estimation import EstimateVector
from faircb.model import Arm, Instance
from faircb.netgen import build_network_experiment, liver_network
from faircb.oracles import oracle_report
from faircb.sweep import ALGORITHMS, run_algorithm

from helpers import (
    BENCH_INSTANCES,
    bound_report,
    chain_model,
    count_kernel_builds,
    harmonic,
    random_instance,
    reference_divergence_set,
    reference_fair_set,
    reference_suboptimal_records,
    reference_unfair_records,
    side_child_model,
)

NAN = float("nan")


def vec(y, zssp, zsps, eps=0.25) -> EstimateVector:
    """Estimates for the clause tests; the effective samples are not read there."""
    y = np.asarray(y, dtype=float)
    return EstimateVector(
        y=y,
        zeta_ssp=np.asarray(zssp, dtype=float),
        zeta_sps=np.asarray(zsps, dtype=float),
        eps=eps,
        n_eff_y=np.zeros_like(y),
        n_eff_ssp=np.zeros_like(y),
        n_eff_sps=np.zeros_like(y),
    )


def test_phase_schedule_frozen():
    tau = phase_schedule(10_000)
    assert tau.dtype == np.int64
    assert len(tau) == 10
    logbar = harmonic(len(tau))
    assert logbar == pytest.approx(7381.0 / 2520.0, rel=1e-15)
    assert tau.sum() == 10_000
    assert tau[0] == 3418
    assert tau[-1] == 341
    assert all(tau[l - 1] == int(10_000 // (l * logbar)) for l in range(2, 11))
    assert np.all(tau[:-1] >= tau[1:])


def test_phase_schedule_edges():
    tau = phase_schedule(4)
    assert len(tau) == 5
    assert tau.sum() == 4
    assert np.all(tau >= 0)
    assert len(phase_schedule(20_000)) == 11
    with pytest.raises(ValueError):
        phase_schedule(3)


RULES = ("joint", "fairness", "outcome")


def test_fair_set_strict_boundaries():
    # l = 2 puts the margin at 0.75 against a threshold of 1.0.
    estimates = vec(
        y=[0.5, 0.5, 0.5, 0.5],
        zssp=[0.25 - 1e-9, 0.25, -0.25, NAN],
        zsps=[0.0, 0.0, 0.0, 0.0],
    )
    for rule in ("joint", "fairness"):
        assert bandit._clauses(estimates, 2, 1.0, (0, 1, 2, 3), rule) == ((0,), ())
    # The margin also applies to the reverse direction.
    estimates = vec(y=[0.5], zssp=[0.0], zsps=[-0.25])
    assert bandit._clauses(estimates, 2, 1.0, (0,), "joint") == ((), ())
    # Restriction to the remaining set; under ``outcome`` every survivor is fair.
    estimates = vec(y=[0.5, 0.5], zssp=[0.0, 0.0], zsps=[0.0, 0.0])
    for rule in RULES:
        assert bandit._clauses(estimates, 2, 1.0, (1,), rule) == ((1,), ())
    estimates = vec(y=[0.5, 0.5], zssp=[NAN, 5.0], zsps=[0.0, 0.0])
    assert bandit._clauses(estimates, 2, 1.0, (0, 1), "outcome") == ((0, 1), ())


def test_eliminate_clauses_and_reasons():
    # l = 3 puts the margin at 0.375 and the gap at 0.625.  With a threshold of
    # 0.5 only arm 0 is certified fair; arms 1 and 2 are neither fair nor unfair.
    estimates = vec(
        y=[0.9, 0.2, NAN, 0.85, 0.5, 0.1],
        zssp=[0.0, 0.2, 0.0, 1.0, 0.0, 1.0],
        zsps=[0.0, 0.0, -0.2, 0.0, -1.0, 0.0],
    )
    remaining = (0, 1, 2, 3, 4, 5)
    unfair = ((3, "unfair-high-ssp"), (4, "unfair-low-sps"), (5, "unfair-high-ssp"))
    assert bandit._clauses(estimates, 3, 0.5, remaining, "joint") == (
        (0,), ((1, "suboptimal"), (5, "suboptimal"), *unfair)
    )
    assert bandit._clauses(estimates, 3, 0.5, remaining, "fairness") == ((0,), unfair)
    # The best fair arm is the reference: arm 3 beats arm 4 by more than the
    # gap, but arm 3 is not fair, so arm 4 stays.
    assert bandit._clauses(estimates, 3, 0.5, (0, 1, 4), "joint") == (
        (0,), ((1, "suboptimal"), (4, "unfair-low-sps"))
    )
    assert bandit._clauses(estimates, 3, 0.5, (1, 2, 3, 4), "joint") == ((), ())
    # Under ``outcome`` every survivor is the reference and no unfairness fires.
    assert bandit._clauses(estimates, 3, 0.5, (1, 3, 4, 5), "outcome") == (
        (1, 3, 4, 5), ((1, "suboptimal"), (5, "suboptimal"))
    )
    # Without a certified fair arm the joint phase must not eliminate anything,
    # while the fairness screen still fires.
    assert bandit._clauses(estimates, 3, 0.2, remaining, "joint") == ((), ())
    assert bandit._clauses(estimates, 3, 0.2, remaining, "fairness") == ((), unfair)


def test_best_outcome_reads_nan_as_minus_inf_and_ties_go_first():
    estimates = vec(y=[0.3, 0.7, NAN, 0.7, -math.inf], zssp=[0.0] * 5, zsps=[0.0] * 5)
    assert bandit._best_outcome(estimates, (0, 1, 2, 3)) == 1
    assert bandit._best_outcome(estimates, (3, 1)) == 3
    assert bandit._best_outcome(estimates, (2, 0)) == 0
    assert bandit._best_outcome(estimates, (2, 4)) == 2
    assert bandit._best_outcome(estimates, (4, 2)) == 4
    best = bandit._best_outcome(vec(y=[NAN] * 3, zssp=[0.0] * 3, zsps=[0.0] * 3), (1, 2))
    assert best == 1 and type(best) is int


def _reference_clauses(estimates, l, fairness_eps, remaining, rule):
    """The reference clauses composed as each rule reads them."""
    if rule == "outcome":
        return remaining, reference_suboptimal_records(estimates, l, remaining, remaining)
    fair = reference_fair_set(estimates, l, fairness_eps, remaining)
    unfair = reference_unfair_records(estimates, l, fairness_eps, remaining)
    if rule == "fairness":
        return fair, unfair
    if not fair:
        return fair, []
    return fair, reference_suboptimal_records(estimates, l, fair, remaining) + unfair


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_vectorized_clauses_match_the_arm_by_arm_loops(data):
    """Under each rule, the same fair set and records in the same order, arms as
    Python ints, on NaN, +-inf, random values and values at (and one ulp off)
    every clause's threshold."""
    K = data.draw(st.integers(1, 30))
    l = data.draw(st.integers(1, 10))
    fairness_eps = data.draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    margin, gap = 3.0 / 2.0**l, 5.0 / 2.0**l
    edges = [s * fairness_eps + t * margin for s in (1, -1) for t in (1, -1)] + [0.0, gap, -gap]
    specials = [math.nan, math.inf, -math.inf, *edges]
    specials += [float(np.nextafter(e, d)) for e in edges for d in (-math.inf, math.inf)]
    value = st.one_of(st.sampled_from(specials), st.floats(-3.0, 3.0))
    y, zssp, zsps = (data.draw(st.lists(value, min_size=K, max_size=K)) for _ in range(3))
    estimates = vec(y, zssp, zsps)
    remaining = tuple(sorted(data.draw(st.sets(st.integers(0, K - 1)))))
    for rule in RULES:
        fair, records = _reference_clauses(estimates, l, fairness_eps, remaining, rule)
        got = bandit._clauses(estimates, l, fairness_eps, remaining, rule)
        assert repr(got) == repr((fair, tuple(records))), rule


# The LP families each phase rule includes, by the effective samples that serve them.
RULE_FAMILIES = {"joint": ("y", "ssp", "sps"), "fairness": ("ssp", "sps"), "outcome": ("y",)}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(ALGORITHMS))
def test_effective_samples_keep_the_lp_promise(seed, algorithm):
    """Rounding puts each count within one pull of nu_j * tau, so every survivor k
    of a phase that pulls gets n_eff_k >= tau * v* - sum_j 1/C_kj in each family
    of its rule; under v2 the right-hand side adds up over the phases k survived."""
    rng = np.random.default_rng(seed)
    instance = random_instance(rng)
    divergences = DivergenceSet.exact(instance.model, instance.arms)
    T = int(rng.integers(16, 3000))
    trace = run_algorithm(instance, algorithm, T, rng, fairness_eps=0.3, divergences=divergences)
    cutoffs = {"y": divergences.m, "ssp": divergences.d_ssp, "sps": divergences.d_sps}
    slack = {family: (1.0 / c).sum(axis=1) for family, c in cutoffs.items()}
    promised = {family: np.zeros(len(instance.arms)) for family in cutoffs}
    for p in trace.phases:
        if algorithm.endswith("v1"):
            promised = {family: np.zeros(len(instance.arms)) for family in cutoffs}
        if p.samples == 0:
            continue
        rule = "joint" if algorithm.startswith("csr") else ("fairness", "outcome")[p.stage - 1]
        survivors = list(p.remaining)
        for family in RULE_FAMILIES[rule]:
            promised[family][survivors] += (
                p.samples * p.allocation.v_star - slack[family][survivors]
            )
            n_eff = getattr(p.estimates, f"n_eff_{family}")[survivors]
            assert np.all(n_eff >= promised[family][survivors] - 1e-9), (p.stage, p.phase, family)


def make_chain_run(T=2000, fairness_eps=0.2, seed=0, variant="v2", **kwargs):
    model, arms = chain_model()
    return run_csr(
        prepare(model, arms, 1.0),
        T=T,
        fairness_eps=fairness_eps,
        variant=variant,
        rng=np.random.default_rng(seed),
        **kwargs,
    )


def test_run_csr_trace_contract():
    trace = make_chain_run()
    tau = phase_schedule(2000)
    assert 1 <= len(trace.phases) <= len(tau)
    assert trace.samples_spent <= 2000
    assert trace.cost_spent == pytest.approx(trace.samples_spent)  # unit costs
    prev_remaining = (0, 1, 2)
    for idx, record in enumerate(trace.phases):
        assert record.phase == idx + 1
        assert record.stage == 1
        assert record.eps == 2.0 ** (-idx)
        assert record.remaining == prev_remaining
        assert set(record.fair) <= set(record.remaining)
        counts = record.allocation.tau_y.sum() + record.allocation.tau_s.sum()
        counts += record.allocation.tau_sp.sum()
        assert record.samples == counts == tau[idx]
        dropped = {k for k, _ in record.eliminated}
        assert dropped <= set(record.remaining)
        prev_remaining = tuple(k for k in record.remaining if k not in dropped)
    assert trace.decision == 2
    assert not trace.no_fair_arm


def test_run_csr_deterministic_per_seed():
    a = make_chain_run(seed=7)
    b = make_chain_run(seed=7)
    assert a.decision == b.decision
    assert a.samples_spent == b.samples_spent
    assert [rec.eliminated for rec in a.phases] == [rec.eliminated for rec in b.phases]


def test_run_csr_variants():
    for variant in ("v1", "v2"):
        trace = make_chain_run(T=20_000, seed=3, variant=variant)
        assert trace.decision == 2
    with pytest.raises(ValueError):
        make_chain_run(variant="v3")


def test_run_csr_early_return_stops_spending():
    trace = make_chain_run(T=20_000, seed=1)
    assert trace.decision == 2
    # Once the survivor set is a singleton the run stops, leaving budget unspent.
    assert trace.phases[-1].remaining == (2,)
    assert trace.samples_spent < 20_000


def test_run_csr_no_fair_arm():
    model, arms = side_child_model()
    trace = run_csr(
        prepare(model, arms, 1.0),
        T=10_000,
        fairness_eps=0.05,
        rng=np.random.default_rng(0),
    )
    assert trace.decision is None
    assert trace.no_fair_arm
    # Nothing is ever eliminated without a certified fair reference arm.
    assert all(record.eliminated == () for record in trace.phases)


def test_run_csr_propagates_infeasible():
    model, arms = chain_model()
    with pytest.raises(Infeasible):
        run_csr(
            prepare(model, arms, 0.0),
            T=1000,
            fairness_eps=0.2,
            rng=np.random.default_rng(0),
        )


def test_run_csr_honors_extra_constraints():
    cap = cheap_arm_cap(3, 0, 2000)
    trace = make_chain_run(extra_constraints=(cap,))
    coeffs, ub = cap
    for record in trace.phases:
        alloc = record.allocation
        off_cheap = alloc.nu_y[1:].sum() + alloc.nu_s[1:].sum() + alloc.nu_sp[1:].sum()
        assert off_cheap <= ub + 1e-9


def test_budget_accounting_nonuniform_costs():
    model, arms = chain_model()
    arms = [
        Arm(index=a.index, table=a.table, cost_pull=0.2, cost_force_s=1.0, cost_force_sprime=1.5)
        for a in arms
    ]
    budget = 0.9
    trace = run_csr(
        prepare(model, arms, budget),
        T=4000,
        fairness_eps=0.2,
        rng=np.random.default_rng(5),
    )
    slack = 3 * len(arms) * 1.5
    for record in trace.phases:
        assert record.cost <= budget * record.samples + slack
    assert trace.cost_spent == pytest.approx(sum(r.cost for r in trace.phases))


def test_run_two_stage_contract():
    model, arms = chain_model()
    trace = run_two_stage(
        prepare(model, arms, 1.0),
        T=20_000,
        fairness_eps=0.2,
        rng=np.random.default_rng(2),
    )
    assert trace.decision == 2
    stages = [record.stage for record in trace.phases]
    assert set(stages) <= {1, 2}
    assert stages == sorted(stages)
    assert 2 in stages
    for record in trace.phases:
        if record.stage == 1:
            np.testing.assert_array_equal(record.allocation.tau_y, 0)
            assert all(reason.startswith("unfair") for _, reason in record.eliminated)
        else:
            np.testing.assert_array_equal(record.allocation.tau_s, 0)
            np.testing.assert_array_equal(record.allocation.tau_sp, 0)
            assert all(reason == "suboptimal" for _, reason in record.eliminated)
    assert trace.samples_spent <= 20_000


def test_run_two_stage_no_fair_arm_skips_stage_two():
    # Twin unfair arms cross their boundaries in the same phase, so stage one
    # empties the survivor set instead of breaking at a lone survivor.
    model, arms = side_child_model()
    twins = (arms[0], Arm(index=1, table=arms[0].table.copy()))
    trace = run_two_stage(
        prepare(model, twins, 1.0),
        T=20_000,
        fairness_eps=0.05,
        rng=np.random.default_rng(0),
    )
    assert trace.decision is None
    assert trace.no_fair_arm
    assert all(record.stage == 1 for record in trace.phases)


def test_run_two_stage_lone_unfair_survivor_is_kept():
    # Sequential eliminations leave a singleton, and the first stage stops
    # screening it: the two-stage baseline can return an unfair arm, which is
    # exactly the weakness the joint runs avoid.  Both arms are unfair; over
    # twelve seeds, every run whose first stage hands one arm to the second
    # returns it, at least one run does, and no joint run declares an arm.
    model, arms = side_child_model()
    prepared = prepare(model, arms, 1.0)
    lone = 0
    for seed in range(12):
        trace = run_two_stage(
            prepared, T=20_000, fairness_eps=0.05, rng=np.random.default_rng(seed),
        )
        stage_two = [record.remaining for record in trace.phases if record.stage == 2]
        if stage_two and len(stage_two[0]) == 1:
            lone += 1
            assert trace.decision == stage_two[0][0], seed
        joint = run_csr(
            prepared, T=20_000, fairness_eps=0.05, rng=np.random.default_rng(seed),
        )
        assert joint.decision is None, seed
    assert lone > 0


def test_run_two_stage_validation():
    model, arms = chain_model()
    prepared = prepare(model, arms, 1.0)
    with pytest.raises(ValueError):
        run_two_stage(prepared, 7, 0.2)
    with pytest.raises(ValueError):
        run_two_stage(prepared, 1000, 0.2, inner="v3")


@pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf])
def test_runs_reject_a_bad_fairness_tolerance(eps):
    model, arms = chain_model()
    prepared = prepare(model, arms, 1.0)
    with pytest.raises(ValueError, match="fairness_eps"):
        run_csr(prepared, 1000, eps)
    with pytest.raises(ValueError, match="fairness_eps"):
        run_two_stage(prepared, 1000, eps)


def test_bound_report_structure_and_frozen_constants():
    model, arms = chain_model()
    oracle = oracle_report(Instance(model=model, arms=tuple(arms)), fairness_eps=0.2)
    report = bound_report(oracle, prepare(model, arms, 1.0), T=10_000)
    assert report["best_fair"] == 2
    assert report["delta"][2] == 0.0
    assert report["so"][0] == 9.0  # ceil(log2(10 / 0.025333..))
    assert report["f_ssp"][1] == 6.0  # ceil(log2(6 / 0.15))
    assert math.isinf(report["f_ssp"][0])
    assert report["l0"] == pytest.approx(math.log2(25.0), abs=1e-12)
    assert math.isinf(report["rho"][2])
    assert report["rho"][1] == 6.0
    assert report["rho"][0] == 9.0
    assert report["rho_star"] == pytest.approx(math.log2(20.0 / (8.0 / 15.0 - 0.508)), abs=1e-9)
    assert set(report["r_star"][0]) == {0, 2}
    assert set(report["r_star"][1]) == {0, 1, 2}
    assert report["v_star_full"] > 0.0
    assert 0.0 <= report["fairness_error_bound"] <= 1.0
    assert 0.0 <= report["misidentification_bound"] <= 1.0
    assert report["n_phases"] == 10
    assert report["xi_star"] == pytest.approx(0.07)


def test_bound_report_no_fair_arm():
    model, arms = side_child_model()
    oracle = oracle_report(Instance(model=model, arms=tuple(arms)), fairness_eps=0.05)
    report = bound_report(oracle, prepare(model, arms, 1.0), T=10_000)
    assert report["best_fair"] is None
    assert report["misidentification_bound"] is None
    assert report["delta"] == [None, None]
    assert 0.0 <= report["fairness_error_bound"] <= 1.0


def test_bound_report_monotone_in_horizon():
    model, arms = chain_model()
    prepared = prepare(model, arms, 1.0)
    oracle = oracle_report(Instance(model=model, arms=tuple(arms)), fairness_eps=0.2)
    small = bound_report(oracle, prepared, 10_000)
    large = bound_report(oracle, prepared, 1_000_000)
    assert large["fairness_error_bound"] <= small["fairness_error_bound"] + 1e-12
    assert large["misidentification_bound"] <= small["misidentification_bound"] + 1e-12


# (fixture, fairness_eps): the chain has a fair best arm at 0.2; at 0.05 the
# side-child model has no fair arm, which the two-stage baseline can miss.
SEEDED_FIXTURES = {"chain": (chain_model, 0.2), "side-child": (side_child_model, 0.05)}
SEEDED_TRACES = json.loads((Path(__file__).parent / "seeded_traces.json").read_text())


def trace_digest(trace) -> str:
    """Hash of each phase's stage, index, arm sets, eliminations and rounded counts."""
    rows = [
        (
            p.stage, p.phase, p.remaining, p.fair, p.eliminated,
            p.allocation.tau_y.tolist(), p.allocation.tau_s.tolist(), p.allocation.tau_sp.tolist(),
        )
        for p in trace.phases
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def seeded_trace(fixture: str, algorithm: str, seed: int, T: int):
    build, fairness_eps = SEEDED_FIXTURES[fixture]
    model, arms = build()
    instance = Instance(model=model, arms=tuple(arms))
    return run_algorithm(
        instance, algorithm, T, np.random.default_rng(seed), budget=1.0, fairness_eps=fairness_eps
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("fixture", sorted(SEEDED_FIXTURES))
def test_seeded_traces_are_pinned(fixture, algorithm):
    """Decisions, spending, phase records and final estimates of seeded runs stay put."""
    for seed in (0, 1, 2):
        for T in (2000, 20_000):
            pinned = SEEDED_TRACES[f"{fixture}/{algorithm}/{seed}/{T}"]
            trace = seeded_trace(fixture, algorithm, seed, T)
            assert trace.decision == pinned["decision"], (seed, T)
            assert trace.samples_spent == pinned["samples_spent"], (seed, T)
            assert trace_digest(trace) == pinned["digest"], (seed, T)
            last = trace.phases[-1].estimates
            for name in ("y", "zeta_ssp", "zeta_sps"):
                np.testing.assert_allclose(
                    getattr(last, name), pinned[name], rtol=0.0, atol=1e-12, err_msg=name
                )


def test_the_chain_fixtures_forced_tie_goes_to_the_lowest_index():
    # The chain is symmetric in the two forced regimes, so in phase 2 of this
    # run nu_s[1] and nu_sp[1] tie in exact arithmetic, and the LP returns
    # them a few ulps apart; the spare pull goes to the lower index, S <- s,
    # whichever of the two the last bits favour.
    record = seeded_trace("chain", "csr-v2", 0, 2000).phases[1]
    tau = int(phase_schedule(2000)[1])
    alloc = record.allocation
    assert abs(alloc.nu_s[1] - alloc.nu_sp[1]) <= 4 * np.spacing(alloc.nu_s[1])
    assert (alloc.tau_s[1], alloc.tau_sp[1]) == (156, 155)
    for regime in ("nu_s", "nu_sp"):
        for ulps in (-2, 2):
            nudged = getattr(alloc, regime).copy()
            nudged[1] += ulps * np.spacing(nudged[1])
            assert nudged[1] != getattr(alloc, regime)[1]
            rounded = round_counts(replace(alloc, **{regime: nudged}), tau)
            assert (rounded.tau_s[1], rounded.tau_sp[1]) == (156, 155), (regime, ulps)


# sha256 prefixes of every phase's tau_* and estimate arrays' bytes, seeded
# runs on the liver experiment (3 arms, T=2000): barren nodes and a
# multi-parent cell code, which the fixtures above lack.
LIVER_PHASE_PINS = {
    "csr-v1/0": "03887944232eb33c",
    "csr-v1/1": "ae880aba994040ae",
    "csr-v1/2": "7e9ccc6b6a7230d0",
    "ts-v2/0": "0cac89ec3558a7fb",
    "ts-v2/1": "864054c56b0d113d",
    "ts-v2/2": "037959b8d97627fb",
}


def test_liver_phase_arrays_are_pinned():
    instance = build_network_experiment(
        liver_network(), "fibrosis", "sex", "carcinoma", n_arms=3, seed=0, fairness_eps=0.2
    )
    for key, pinned in LIVER_PHASE_PINS.items():
        algorithm, seed = key.split("/")
        trace = run_algorithm(instance, algorithm, 2000, np.random.default_rng(int(seed)), budget=1.0)
        h = hashlib.sha256()
        for p in trace.phases:
            a, e = p.allocation, p.estimates
            for arr in (a.tau_y, a.tau_s, a.tau_sp, e.y, e.zeta_ssp, e.zeta_sps):
                h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest()[:16] == pinned, key


# sha256 prefixes of every phase's estimate arrays' bytes and of the decision,
# seeded runs of every algorithm on the benchmark instances at their top
# budgets, with the default budget the benchmark's runs use.
BENCH_TOP_BUDGETS = {"synth-k30": 6000, "liver-k10": 10_000, "band-k5": 4000}
BENCH_ESTIMATE_PINS = {
    "synth-k30": {
        "csr-v1/0": "a68d32573358b9da", "csr-v1/1": "6ad3430f1e2df953", "csr-v1/2": "f599e7f11a1d91ad",
        "csr-v2/0": "d13306bf37b1cdbf", "csr-v2/1": "950b447e4fe82b59", "csr-v2/2": "40021ed2938cded2",
        "ts-v1/0": "2bae3d91ff0a9d49", "ts-v1/1": "b1a7f2eca6a712e3", "ts-v1/2": "3538ba3f61ddcf9a",
        "ts-v2/0": "a52c26643ebb041f", "ts-v2/1": "1af006f689d8130b", "ts-v2/2": "af25a0c1a5f1eaab",
    },
    "liver-k10": {
        "csr-v1/0": "ba25cf24a599986f", "csr-v1/1": "a3e805cd8f45fbea", "csr-v1/2": "5476f3af74cc186b",
        "csr-v2/0": "8d94a4fa474acb1d", "csr-v2/1": "4062d7c7df2075e0", "csr-v2/2": "c7f606d6a0a2e448",
        "ts-v1/0": "3b2155c1c12acec3", "ts-v1/1": "725108ca7fe0db2e", "ts-v1/2": "a12e94b645873eea",
        "ts-v2/0": "652c2fc9d8450520", "ts-v2/1": "bb784d166d1ffc0c", "ts-v2/2": "b61049715c1e7de7",
    },
    "band-k5": {
        "csr-v1/0": "198fda8324acd89f", "csr-v1/1": "8ad6247fe50e1f65", "csr-v1/2": "7a2ebf0541817c2a",
        "csr-v2/0": "192b4ae4ea58ea58", "csr-v2/1": "a52c0b865041cf81", "csr-v2/2": "b1f2a34effda6319",
        "ts-v1/0": "2355fa35030af829", "ts-v1/1": "3a48d92bfe52a499", "ts-v1/2": "d9c9e3e124b5aaa5",
        "ts-v2/0": "fabd1bf67362ff8e", "ts-v2/1": "44c6df49c002542f", "ts-v2/2": "2a9f7fc55b6d9821",
    },
}


def estimate_digest(trace) -> str:
    h = hashlib.sha256()
    for p in trace.phases:
        for arr in (p.estimates.y, p.estimates.zeta_ssp, p.estimates.zeta_sps):
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(trace.decision).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("workload", sorted(BENCH_TOP_BUDGETS))
def test_bench_phase_estimates_are_pinned(workload):
    instance = BENCH_INSTANCES[workload]()
    divergences = DivergenceSet.exact(instance.model, instance.arms)
    got = {
        f"{algorithm}/{seed}": estimate_digest(run_algorithm(
            instance, algorithm, BENCH_TOP_BUDGETS[workload], np.random.default_rng(seed),
            divergences=divergences,
        ))
        for algorithm in ALGORITHMS for seed in (0, 1, 2)
    }
    assert got == BENCH_ESTIMATE_PINS[workload]


@pytest.mark.parametrize("costly", [False, True])
@pytest.mark.parametrize("workload", sorted(BENCH_TOP_BUDGETS))
def test_memo_plans_match_their_rounded_allocations(workload, costly):
    """Each phase draws the counts, and charges the samples and cost, that the
    memo's plan keeps; after seeded runs of every algorithm each plan equals a
    fresh count of its rounded allocation, its cost summed arm by arm, then
    regime by regime, bit for bit.  The bench costs are 0 or 1, whose sums
    are exact in any order, so each instance also runs with irregular costs."""
    instance = BENCH_INSTANCES[workload]()
    if costly:
        rng = np.random.default_rng(7)
        instance = replace(instance, arms=tuple(
            replace(arm, **dict(zip(("cost_pull", "cost_force_s", "cost_force_sprime"),
                                    rng.uniform(0.1, 1.3, size=3).tolist())))
            for arm in instance.arms))
    divergences = DivergenceSet.exact(instance.model, instance.arms)
    bandit._SOLVED.clear()
    for algorithm in ALGORITHMS:
        for seed in (0, 1):
            run_algorithm(instance, algorithm, BENCH_TOP_BUDGETS[workload],
                          np.random.default_rng(seed), divergences=divergences)
    costs = costs_from_arms(instance.arms)
    plans = [value for _, _, value in bandit.memo_entries() if isinstance(value, bandit._Plan)]
    assert plans
    for plan in plans:
        a = plan.allocation
        counts = np.stack([a.tau_y, a.tau_s, a.tau_sp], axis=1)
        cost = 0.0
        for arm, regime in zip(*np.nonzero(counts)):
            cost += float(costs[regime, arm]) * int(counts[arm, regime])
        assert np.array_equal(plan.counts, counts) and not plan.counts.flags.writeable
        assert plan.samples == int(counts.sum()) and type(plan.samples) is int
        assert plan.cost.hex() == cost.hex()


@pytest.mark.parametrize("workload", sorted(BENCH_TOP_BUDGETS))
def test_bench_runs_on_the_exact_and_the_pairwise_divergences_agree(workload):
    # The exact matrices and the pairwise reference may differ in the last
    # bits; the runs they drive make the same decisions, spend the same and
    # record the same phases, with estimates to 1e-12.
    instance = BENCH_INSTANCES[workload]()
    both = (DivergenceSet.exact(instance.model, instance.arms),
            reference_divergence_set(instance.model, instance.arms))
    for algorithm in ALGORITHMS:
        for seed in (0, 1, 2):
            got, want = (run_algorithm(
                instance, algorithm, BENCH_TOP_BUDGETS[workload], np.random.default_rng(seed),
                divergences=divergences,
            ) for divergences in both)
            assert (got.decision, got.samples_spent, got.cost_spent, trace_digest(got)) == (
                want.decision, want.samples_spent, want.cost_spent, trace_digest(want)
            ), (algorithm, seed)
            for p, q in zip(got.phases, want.phases, strict=True):
                for name in ("y", "zeta_ssp", "zeta_sps"):
                    np.testing.assert_allclose(
                        getattr(p.estimates, name), getattr(q.estimates, name),
                        rtol=0.0, atol=1e-12, err_msg=f"{algorithm}/{seed} {name}",
                    )


def count_solves(monkeypatch) -> list:
    """The active set of every LP the bandit module solves from here on."""
    solve = bandit.solve_maxmin
    solves = []

    def counted(problem):
        solves.append(problem.active)
        return solve(problem)

    monkeypatch.setattr(bandit, "solve_maxmin", counted)
    return solves


@pytest.mark.parametrize("runner", [run_csr, run_two_stage])
def test_each_distinct_allocation_problem_is_solved_once_per_run(monkeypatch, runner):
    model, arms = chain_model()
    prepared = prepare(model, arms, 1.0)
    bandit._SOLVED.clear()
    solves = count_solves(monkeypatch)

    def run(seed):
        return runner(prepared, 20_000, 0.2, "v2", np.random.default_rng(seed))

    traces = [run(seed) for seed in range(3)]
    distinct = {(p.remaining, p.stage) for trace in traces for p in trace.phases}
    assert len(solves) == len(distinct)
    assert sum(len(trace.phases) for trace in traces) > len(solves)
    solves.clear()
    assert pickle.dumps(run(0)) == pickle.dumps(traces[0])
    assert solves == []


@pytest.mark.parametrize("fixture", sorted(SEEDED_FIXTURES))
def test_seeded_traces_do_not_depend_on_the_memo(fixture):
    cases = [(a, seed, T) for a in ALGORITHMS for seed in (0, 1, 2) for T in (2000, 20_000)]
    cold = {}
    for case in cases:
        bandit._SOLVED.clear()
        cold[case] = pickle.dumps(seeded_trace(fixture, *case))
    for case in cases:
        assert pickle.dumps(seeded_trace(fixture, *case)) == cold[case], case


def assert_traces_do_not_depend_on(memo, fixture: str) -> None:
    """Seeded traces from a ``memo`` cleared before each run equal those from a warm one."""
    cases = [(a, seed, 2000) for a in ALGORITHMS for seed in (0, 1, 2)]
    cold = {}
    for case in cases:
        memo.clear()
        cold[case] = pickle.dumps(seeded_trace(fixture, *case))
    for case in cases:
        assert pickle.dumps(seeded_trace(fixture, *case)) == cold[case], case


@pytest.mark.parametrize("fixture", sorted(SEEDED_FIXTURES))
def test_seeded_traces_do_not_depend_on_the_law_memo(fixture):
    assert_traces_do_not_depend_on(sampling._TABLES, fixture)


class _MemoKernels:
    """The kernels held in the instance-table memo; ``clear`` drops them and keeps the laws."""

    def clear(self) -> None:
        for tables in sampling._TABLES.values():
            vars(tables).pop("kernel", None)


@pytest.mark.parametrize("fixture", sorted(SEEDED_FIXTURES))
def test_seeded_traces_do_not_depend_on_the_kernel_memo(fixture):
    assert_traces_do_not_depend_on(_MemoKernels(), fixture)


def test_a_v1_run_builds_the_kernel_once(monkeypatch):
    builds = count_kernel_builds(monkeypatch)
    trace = make_chain_run(T=20_000, variant="v1")
    assert len(trace.phases) > 1
    assert len(builds) == 1


@pytest.mark.parametrize("runner", [run_csr, run_two_stage])
def test_a_v1_run_looks_the_kernel_up_once(monkeypatch, runner):
    # A content-keyed lookup costs tens of microseconds; a v1 run pays it
    # once, not once per phase.
    lookup = sampling.instance_tables
    lookups = []

    def counted(model, arms):
        lookups.append(arms)
        return lookup(model, arms)

    monkeypatch.setattr(sampling, "instance_tables", counted)
    model, arms = chain_model()
    trace = runner(prepare(model, arms, 1.0), 20_000, 0.2, "v1", np.random.default_rng(0))
    assert len(trace.phases) > 1
    assert len(lookups) == 1



@pytest.mark.parametrize("runner", [run_csr, run_two_stage])
def test_the_kernel_is_looked_up_before_the_first_pull(monkeypatch, runner):
    # A kernel that cannot be held fails the run before it draws anything.
    def too_large(transport, regime):
        raise EnumerationTooLarge("kernel over the cap")

    sample_batch = sampling.sample_batch
    pulls = []

    def counted(*args):
        pulls.append(args)
        return sample_batch(*args)

    model, arms = chain_model()
    divergences = DivergenceSet.exact(model, arms)
    sampling._TABLES.clear()
    monkeypatch.setattr(sampling, "_build_kernel", too_large)
    monkeypatch.setattr(sampling, "sample_batch", counted)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(EnumerationTooLarge):
        runner(prepare(model, arms, 1.0, divergences), 20_000, 0.2, "v2", rng)
    assert pulls == []
    assert rng.bit_generator.state == state

@pytest.mark.parametrize("edit", ["arm table", "divergences"])
def test_a_prepared_instance_is_a_snapshot(edit):
    model, arms = chain_model()
    divergences = DivergenceSet.exact(model, arms)
    given = divergences if edit == "divergences" else None

    def run(prepared):
        return pickle.dumps(run_csr(prepared, 2000, 0.2, rng=np.random.default_rng(0)))

    kept = prepare(model, arms, 1.0, given)
    before = run(kept)
    if edit == "divergences":
        divergences.m[0, 1] *= 1.5
    else:
        arms[1].table[:] = arms[2].table
    assert run(kept) == before
    fresh = prepare(model, arms, 1.0, given)
    assert run(fresh) != before
    for array in (kept.costs, kept.divergences.m, fresh.divergences.d_ssp):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 2.0


@pytest.mark.parametrize("shapes", [((2, 2),) * 3, ((3, 3), (3, 2), (3, 3))])
def test_divergences_of_another_shape_are_refused_before_any_pull(monkeypatch, shapes):
    model, arms = chain_model()
    divergences = DivergenceSet(*(np.ones(shape) for shape in shapes))
    pulls = []
    monkeypatch.setattr(sampling, "sample_batch", lambda *args: pulls.append(args))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"divergences must be 3 x 3 for the 3 arms"):
        run_algorithm(Instance(model, tuple(arms)), "csr-v2", 2000, rng, fairness_eps=0.2,
                      divergences=divergences)
    assert pulls == []
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("runner", [run_csr, run_two_stage])
def test_a_prepared_run_makes_no_content_lookup(monkeypatch, runner):
    model, arms = chain_model()
    prepared = prepare(model, arms, 1.0)

    def lookup(*args):
        raise AssertionError("a content lookup after prepare")

    monkeypatch.setattr(sampling, "instance_tables", lookup)
    monkeypatch.setattr(DivergenceSet, "exact", lookup)
    assert runner(prepared, 2000, 0.2, rng=np.random.default_rng(0)).phases


def test_memoized_fractions_are_read_only():
    trace = make_chain_run()
    for record in trace.phases:
        with pytest.raises(ValueError, match="read-only"):
            record.allocation.nu_y[0] = 0.5


def test_a_warm_memo_rounds_no_phase_again(monkeypatch):
    bandit._SOLVED.clear()
    rounds = []
    round_counts = bandit.round_counts

    def counted(alloc, tau):
        rounds.append(tau)
        return round_counts(alloc, tau)

    monkeypatch.setattr(bandit, "round_counts", counted)
    first = make_chain_run(T=20_000)
    assert rounds
    rounds.clear()
    second = make_chain_run(T=20_000)
    assert rounds == []
    assert trace_digest(second) == trace_digest(first)
    for record in second.phases:
        for counts in (record.allocation.tau_y, record.allocation.tau_s, record.allocation.tau_sp):
            with pytest.raises(ValueError, match="read-only"):
                counts[0] = 1


def test_roundings_stay_within_their_bound(monkeypatch):
    # Solutions and roundings share the instance's one bound.  A rounding
    # miss reads its solution first, so the solution stays the most recent
    # entry but one.
    monkeypatch.setattr(bandit, "_MEMO_ENTRIES", 3)
    model, arms = chain_model()
    bandit._SOLVED.clear()
    run = bandit._Run(prepare(model, arms, 1.0), 0.2, "v2", None, ())
    solution = bandit._allocate(run, (0, 1, 2), "joint")
    for tau in (0, 10, 20, 30):
        rounded = bandit._plan(run, (0, 1, 2), "joint", tau).allocation
        assert sum(int(c.sum()) for c in (rounded.tau_y, rounded.tau_s, rounded.tau_sp)) == tau
        assert rounded.nu_y is solution.nu_y and len(run.solved) <= 3
    assert list(run.solved) == [((0, 1, 2), "joint", 20), ((0, 1, 2), "joint"), ((0, 1, 2), "joint", 30)]
    assert bandit._allocate(run, (0, 1, 2), "joint") is solution


def test_editing_divergences_in_place_forces_a_new_solve(monkeypatch):
    model, arms = chain_model()
    divergences = DivergenceSet.exact(model, arms)
    solves = count_solves(monkeypatch)

    def run():
        return run_csr(prepare(model, arms, 1.0, divergences), 2000, 0.2,
                       rng=np.random.default_rng(0))

    run()
    solves.clear()
    run()
    assert solves == []
    divergences.m[0, 1] *= 1.5
    run()
    assert solves


def test_memo_stays_within_its_bounds(monkeypatch):
    monkeypatch.setattr(bandit, "_MEMO_INSTANCES", 2)
    monkeypatch.setattr(bandit, "_MEMO_ENTRIES", 3)
    model, arms = chain_model()
    divergences = DivergenceSet.exact(model, arms)
    bandit._SOLVED.clear()
    for budget in (1.0, 1.5, 2.0, 2.5):
        run = bandit._Run(prepare(model, arms, budget, divergences), 0.2, "v2", None, ())
        for remaining in ((0,), (1,), (2,), (0, 1), (0, 2)):
            for rule in ("joint", "fairness", "outcome"):
                bandit._plan(run, remaining, rule, 10)
                assert len(bandit._SOLVED) <= 2
                assert all(len(solved) <= 3 for solved in bandit._SOLVED.values())
    assert len(bandit._SOLVED) == 2
    # The most recent solution and rounding survive eviction.
    solves, rounds, round_counts = count_solves(monkeypatch), [], bandit.round_counts

    def counted(alloc, tau):
        rounds.append(tau)
        return round_counts(alloc, tau)

    monkeypatch.setattr(bandit, "round_counts", counted)
    bandit._plan(run, (0, 2), "outcome", 10)
    bandit._allocate(run, (0, 2), "outcome")
    assert solves == [] and rounds == []


@pytest.mark.parametrize("fixture", sorted(SEEDED_FIXTURES))
def test_bound_report_solves_each_distinct_set_once(monkeypatch, fixture):
    build, fairness_eps = SEEDED_FIXTURES[fixture]
    model, arms = build()
    oracle = oracle_report(Instance(model=model, arms=tuple(arms)), fairness_eps=fairness_eps)
    prepared = prepare(model, arms, 1.0)
    bandit._SOLVED.clear()
    solves = count_solves(monkeypatch)
    report = bound_report(oracle, prepared, 10_000)
    # v_star is solved for every r_star set but the best arm's, and for the full set.
    sets = {tuple(r) for k, r in report["r_star"].items() if k != report["best_fair"]}
    assert len(solves) == len(sets | {tuple(range(len(arms)))})
