"""Tests for the synthetic instance generator."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import gammaln

from faircb import synth
from faircb.divergence import DivergenceSet
from faircb.errors import GenerationFailed
from faircb.io import instance_digest
from faircb.model import Arm, ValidationReport, validate_model
from faircb.oracles import oracle_report
from faircb.synth import SyntheticConfig, generate_synthetic

from helpers import (
    BENCH_CONFIGS, BENCH_INSTANCES, random_instance, reference_generate_synthetic, scalar_g,
)

LOW_BAND = SyntheticConfig(
    n_arms=5,
    support=4,
    seed=3,
    fairness_eps=0.5,
    fairness_gap_band=(0.3, 0.45),
    reward_gap_band=(0.05, 0.15),
    divergence_band=(1.0, 10.0),
)
# A banded config whose first draw is accepted.
FIRST_DRAW_BAND = SyntheticConfig(
    n_arms=3, support=4, seed=1, fairness_eps=0.5, fairness_gap_band=(0.3, 0.45),
    reward_gap_band=(0.05, 0.15), divergence_band=(1.0, 10.0))


@pytest.fixture(scope="module")
def low_band_instance():
    return generate_synthetic(LOW_BAND)


def test_generated_instance_validates(low_band_instance):
    inst = low_band_instance
    assert validate_model(inst.model, inst.arms).ok
    assert inst.observed == ("S", "V", "Y")
    assert inst.name == "synthetic-K5-m4-seed3"
    assert inst.fairness_eps == 0.5
    assert len(inst.arms) == 5
    np.testing.assert_array_equal(inst.arms[0].table, inst.model.cpts["V"])
    # The sensitive attribute is an unbiased coin in this family.
    np.testing.assert_array_equal(inst.model.cpts["S"], [[0.5, 0.5]])


def test_band_endpoints_are_hit_exactly(low_band_instance):
    report = oracle_report(low_band_instance, 0.5)
    glo, ghi = LOW_BAND.reward_gap_band
    blo, bhi = LOW_BAND.fairness_gap_band
    # The tightest fairness margin and the tightest reward gap land exactly
    # on the low band endpoints; everything else stays inside the bands.
    assert report["xi_star"] == pytest.approx(blo, abs=1e-9)
    gaps = [report["fair_gaps"][k] for k in report["fair"] if k != report["best_fair"]]
    assert min(gaps) == pytest.approx(glo, abs=1e-9)
    assert all(glo - 1e-9 <= g <= ghi + 1e-9 for g in gaps)
    for k in range(5):
        dist = min(
            abs(abs(report["zeta_ssp"][k]) - 0.5),
            abs(abs(report["zeta_sps"][k]) - 0.5),
        )
        assert blo - 1e-9 <= dist <= bhi + 1e-9


def test_divergence_band_low(low_band_instance):
    div = DivergenceSet.exact(low_band_instance.model, low_band_instance.arms)
    cols = np.concatenate([div.m[1:, 0], div.d_ssp[1:, 0], div.d_sps[1:, 0]])
    assert (cols > 1.0).all() and (cols < 10.0).all()


def test_divergence_band_generation_is_frozen(low_band_instance):
    # Each attempt is accepted or rejected on the exact divergence columns, so
    # last-digit drift in the divergence arithmetic must leave the returned
    # instance unchanged.
    assert instance_digest(low_band_instance) == "b8187a2ab2fce0cd"


def test_divergence_band_high():
    config = SyntheticConfig(
        n_arms=5,
        support=6,
        seed=4,
        fairness_eps=0.5,
        fairness_gap_band=(0.3, 0.45),
        reward_gap_band=(0.3, 0.45),
        divergence_band=(10.0, 50.0),
    )
    inst = generate_synthetic(config)
    div = DivergenceSet.exact(inst.model, inst.arms)
    cols = np.concatenate([div.m[1:, 0], div.d_ssp[1:, 0], div.d_sps[1:, 0]])
    assert (cols > 10.0).all() and (cols < 50.0).all()
    # The band-k5 benchmark instance: the band check rejects hundreds of
    # draws before this one, so any change to what it reads moves the digest.
    assert instance_digest(inst) == "8cec750594dab990"


def test_large_instance_is_pinned():
    # The synth-k30 benchmark instance, without a divergence band.
    config = SyntheticConfig(
        n_arms=30,
        support=20,
        seed=5,
        reward_gap_band=(0.02, 0.06),
        fairness_gap_band=(1.93, 1.99),
    )
    assert instance_digest(generate_synthetic(config)) == "a45c3686c4a34ba0"


def _assert_columns_match(model, arms, source):
    # The band reads column ``source`` of the full build; each entry of it is
    # a function of the target and the source arm alone, so the two-arm
    # build of that pair gives it too, up to rounding.
    div = DivergenceSet.exact(model, arms)
    for i, arm in enumerate(arms):
        pair = DivergenceSet.exact(model, [arm, arms[source]])
        for name in ("m", "d_ssp", "d_sps"):
            full = getattr(div, name)[i, source]
            assert getattr(pair, name)[0, 1 if i != source else 0] == pytest.approx(
                full, rel=1e-12, abs=1e-12), (name, i)


@pytest.mark.parametrize("seed", range(8))
def test_band_columns_equal_the_full_build(seed):
    inst = random_instance(np.random.default_rng(seed))
    _assert_columns_match(inst.model, inst.arms, 0)
    _assert_columns_match(inst.model, inst.arms, len(inst.arms) - 1)


def test_band_columns_equal_the_full_build_on_low_band(low_band_instance):
    _assert_columns_match(low_band_instance.model, low_band_instance.arms, 0)


@settings(max_examples=40, deadline=None)
@given(
    support=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    params=st.lists(
        st.tuples(*[st.floats(synth._PARAM_LO, synth._PARAM_HI)] * 2), min_size=2, max_size=8
    ),
)
# A one-row stack once gave this example's M[1, 0] one ulp above the full build's.
@example(support=7, seed=0, params=[(0.109375, 0.75), (0.109375, 0.75)])
def test_early_band_check_is_row_k_of_the_column(support, seed, params):
    # The generator prefilters every arm of a chunk on M[k, 0], in closed form
    # over a leading axis of draws; each value must lie far within the
    # prefilter's slack of the full build's entry, or the prefilter could
    # reject a draw that the exact check keeps.
    f = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, size=support))
    rows = synth._binom_rows(support, np.array(params).ravel())
    tables = (rows / rows.sum(axis=1, keepdims=True)).reshape(len(params), 2, support)
    config = SyntheticConfig(n_arms=len(params), support=support)
    model = synth._build_model(config, f, tables[0].copy())
    arms = [Arm(k, table) for k, table in enumerate(tables)]
    full = DivergenceSet.exact(model, arms).m[:, 0]
    # The same draw twice in one chunk, so the leading axis is exercised too.
    early = synth._m_to_deployed(np.stack([tables, tables]))
    assert early.shape == (2, len(params))
    for k in range(1, len(arms)):
        assert early[0, k] == early[1, k]
        assert abs(early[0, k] - full[k]) <= 1e-3 * synth._BAND_SLACK * abs(full[k])


def test_band_k5_draws_at_most_one_chunk_past_its_accepted_attempt(monkeypatch):
    # The generator draws at most one chunk of attempts past the one it
    # returns.  Validation runs before the exact band check, so it sees every
    # draw that passes the prefilter up to the accepted one, as many as the
    # one-attempt-at-a-time loop rejects on those two checks before it, and
    # the instance returned is the last one validated.
    config = BENCH_CONFIGS["band-k5"]
    _, accepted = reference_generate_synthetic(config)
    with pytest.raises(GenerationFailed) as before:
        reference_generate_synthetic(replace(config, max_attempts=accepted))
    counts = re.search(r"exact band (\d+), validation (\d+)", str(before.value))
    draw, validate = synth._draw, synth.validate_model
    drawn, validated = [], []

    def counted_draw(config, rng, attempt):
        drawn.append(attempt)
        return draw(config, rng, attempt)

    def counted_validate(model, arms):
        validated.append((model, arms))
        return validate(model, arms)

    monkeypatch.setattr(synth, "_draw", counted_draw)
    monkeypatch.setattr(synth, "validate_model", counted_validate)
    inst = BENCH_INSTANCES["band-k5"]()
    assert drawn == list(range(len(drawn)))
    assert accepted < len(drawn) <= accepted + synth._MAX_CHUNK
    assert len(validated) == int(counts[1]) + int(counts[2]) + 1
    model, arms = validated[-1]
    assert model is inst.model
    assert all(a is b for a, b in zip(arms, inst.arms, strict=True))


@pytest.mark.parametrize("config, passes, draws", [
    (BENCH_CONFIGS["band-k5"], 11, 383), (BENCH_CONFIGS["synth-k30"], 1, 1), (FIRST_DRAW_BAND, 1, 1),
], ids=["band-k5", "synth-k30", "first-draw-band"])
def test_generations_keep_their_chunk_schedule(config, passes, draws, monkeypatch):
    # Every config starts at a single attempt and its chunks then double, so
    # one whose first draw passes, banded or not, draws one attempt: one Brent
    # pass per chunk that reaches the inversion, every attempt of a chunk
    # drawn before it.
    brent, draw = synth._brent, synth._draw
    calls = {"_brent": 0, "_draw": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(synth, "_brent", counted("_brent", brent))
    monkeypatch.setattr(synth, "_draw", counted("_draw", draw))
    generate_synthetic(config)
    assert calls == {"_brent": passes, "_draw": draws}


def test_log_gamma_port_is_scipy_gammaln_bit_for_bit():
    ks = [*range(1, 10**6 + 1), 10**8, 2**40]
    ported = np.array([synth._log_gamma(k) for k in ks])
    assert ported.tobytes() == gammaln(np.array(ks, dtype=float)).tobytes()


def _brentq_root(f: np.ndarray, target: float) -> float:
    g = scalar_g(f)
    return brentq(lambda p: g(p) - target, synth._PARAM_LO, synth._PARAM_HI, xtol=1e-14)


@pytest.mark.parametrize("name", ["synth-k30", "band-k5"])
def test_inversions_are_brentq_roots_bit_for_bit(name, monkeypatch):
    # Every lane of the lane-parallel Brent pass against scipy.optimize.brentq
    # at the same xtol on the scalar g, over the benchmark instance's generation.
    brent = synth._brent
    roots = []

    def checked_brent(f, target, fa, fb):
        got, converged = brent(f, target, fa, fb)
        assert converged.all()
        roots.extend((root, _brentq_root(row, t)) for root, row, t in zip(got, f, target))
        return got, converged

    monkeypatch.setattr(synth, "_brent", checked_brent)
    BENCH_INSTANCES[name]()
    assert len(roots) >= 60
    assert all(got == want for got, want in roots)


@settings(max_examples=60, deadline=None)
@given(
    support=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    spots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
)
@example(support=2, seed=0, spots=[0.0, 1.0])
def test_brent_lanes_are_brentq_roots_bit_for_bit(support, seed, spots):
    # Random sorted scores and targets anywhere inside g's range, down to one
    # ulp from either end, all inverted in one pass.
    f = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, size=support))
    if f[0] == f[-1]:
        f[-1] = 1.0
    g = scalar_g(f)
    lo, hi = g(synth._PARAM_LO), g(synth._PARAM_HI)
    targets = np.array([
        np.nextafter(lo, hi) if s == 0.0 else np.nextafter(hi, lo) if s == 1.0
        else min(max(lo + s * (hi - lo), np.nextafter(lo, hi)), np.nextafter(hi, lo))
        for s in spots
    ])
    rows = np.tile(f, (len(targets), 1))
    roots, converged = synth._brent(rows, targets, lo - targets, hi - targets)
    assert converged.all()
    assert roots.tolist() == [_brentq_root(f, t) for t in targets]


def test_a_root_that_does_not_converge_raises(monkeypatch):
    # brentq raises when its iterations run out; so does the generator, at
    # the arm whose root it is.
    monkeypatch.setattr(synth, "_BRENT_ITER", 2)
    with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
        generate_synthetic(LOW_BAND)


def test_a_draw_that_fails_validation_is_never_returned(monkeypatch):
    config = replace(LOW_BAND, max_attempts=30)
    generate_synthetic(config)  # passes the bands within these attempts
    validated = []

    def failing(model, arms):
        validated.append(model)
        return ValidationReport(False, ("rejected",))

    monkeypatch.setattr(synth, "validate_model", failing)
    with pytest.raises(GenerationFailed, match="30 attempts"):
        generate_synthetic(config)
    assert validated


def test_generation_failure_counts_the_rejections_per_check():
    # Past a support of about 550 the binomial rows underflow to exact zeros
    # at different cells per arm, so validation rejects every draw.
    config = SyntheticConfig(n_arms=3, support=800, max_attempts=5)
    with pytest.raises(GenerationFailed) as failed:
        generate_synthetic(config)
    message = str(failed.value)
    assert message.startswith("no instance satisfied the configured bands in 5 attempts")
    assert "level window 0, band prefilter 0, exact band 0, validation 5;" in message
    assert "the last validation problem: arm 1: zero pattern differs from arm 0" in message


def test_validation_runs_before_the_exact_band_check():
    # Draw 1 validates and fails the band (D_ssp[1, 0] is about 1.2e245);
    # draw 2 underflows at different cells, so validation rejects it before
    # its divergences are built.
    config = SyntheticConfig(
        n_arms=2, support=300, seed=0, fairness_eps=0.75, reward_gap_band=(1e-9, 0.125000001),
        fairness_gap_band=(1e-9, 0.125000001), divergence_band=(0.0, 2.0), cheap_arm=False,
        max_attempts=2)
    with pytest.raises(GenerationFailed) as failed:
        generate_synthetic(config)
    assert str(failed.value).endswith(
        "exact band 1, validation 1; the last validation problem: arm 1: zero pattern differs from arm 0)")


def _outcome(generate, config: SyntheticConfig):
    """The digest of what ``generate`` returns, or the GenerationFailed it raises."""
    try:
        return "made", instance_digest(generate(config))
    except GenerationFailed as failed:
        return "failed", str(failed)


def _reference(config: SyntheticConfig):
    return reference_generate_synthetic(config)[0]


@st.composite
def _configs(draw):
    n_arms = draw(st.integers(2, 8))
    support = draw(st.integers(2, 12))
    eps = draw(st.sampled_from([0.1, 0.5, 2.0]))
    low = draw(st.floats(0.1, 0.9))
    reward_low = draw(st.floats(0.01, 0.3))
    f_values = None
    if draw(st.booleans()):
        f = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=support, max_size=support)))
        f_values = tuple(f) if f[0] < f[-1] else None
    return SyntheticConfig(
        n_arms=n_arms,
        support=support,
        seed=draw(st.integers(0, 2**16)),
        epsilon_param=draw(st.sampled_from([0.99, 0.8, 1.0])),
        fairness_eps=eps,
        reward_gap_band=(reward_low, reward_low + draw(st.floats(0.01, 0.3))),
        fairness_gap_band=(low * eps, (low + draw(st.floats(0.02, 0.5))) * eps),
        divergence_band=draw(st.sampled_from([None, (1.0, 10.0), (10.0, 50.0), (1.0, 1.5), (2.0, 4.0)])),
        n_unfair=draw(st.integers(0, n_arms - 1) | st.just(n_arms)),
        f_values=f_values,
        cheap_arm=draw(st.booleans()),
        max_attempts=draw(st.integers(1, 80)),
    )


@settings(max_examples=80, deadline=None)
@given(config=_configs())
@example(config=replace(LOW_BAND, max_attempts=3))
@example(config=replace(BENCH_CONFIGS["band-k5"], max_attempts=340))
@example(config=SyntheticConfig(max_attempts=3))
@example(config=SyntheticConfig(n_arms=3, support=800, max_attempts=5))
# Past the strategy's K <= 8: 30 arms, some unfair, on given scores, fair margins clipped.
@example(config=SyntheticConfig(
    n_arms=30, support=6, fairness_eps=0.5, fairness_gap_band=(0.05, 0.7), reward_gap_band=(0.01, 0.05),
    n_unfair=7, f_values=(0.0, 0.1, 0.3, 0.6, 0.8, 1.0), max_attempts=20))
# A banded config whose first draw is accepted, and two whose last chunk is cut short.
@example(config=FIRST_DRAW_BAND)
@example(config=replace(LOW_BAND, max_attempts=40))
@example(config=replace(BENCH_CONFIGS["band-k5"], max_attempts=50))
def test_chunked_generation_equals_one_attempt_at_a_time(config):
    # The same instance bit for bit, or the same failure with the same counts
    # per check, as the one-attempt-at-a-time loop on scipy's scalar brentq.
    assert _outcome(generate_synthetic, config) == _outcome(_reference, config)


def _step(support: int, at: int) -> tuple[float, ...]:
    """Scores 0 up to ``at`` and 1 from there: the extreme ``f`` for one end of g's range."""
    return (0.0,) * at + (1.0,) * (support - at)


@st.composite
def _accepted_configs(draw):
    """Configs validate() accepts, gap bands from _ORACLE_TOL and support up to 5000.

    The threshold and noise stay where level windows are often nonempty, so
    about a quarter of the configs reach the oracle post-check.
    """
    n_arms = draw(st.integers(2, 6))
    support = draw(st.integers(2, 40) | st.sampled_from([300, 539, 540, 4999, 5000]))
    eps = draw(st.floats(1e-3, 0.8))
    tol = synth._ORACLE_TOL
    reward_low = draw(st.just(tol) | st.floats(tol, 0.2))
    fairness_low = draw(st.just(tol) | st.floats(tol, eps))
    divergence_low = draw(st.floats(0.0, 20.0))
    f_values = draw(st.sampled_from([None, _step(support, 1), _step(support, support - 1)]))
    config = SyntheticConfig(
        n_arms=n_arms,
        support=support,
        seed=draw(st.integers(0, 2**16)),
        epsilon_param=draw(st.floats(0.75, 1.0)),
        fairness_eps=eps,
        reward_gap_band=(reward_low, reward_low + draw(st.floats(tol, 0.2))),
        fairness_gap_band=(fairness_low, fairness_low + draw(st.floats(tol, 0.5))),
        divergence_band=draw(st.none() | st.just(
            (divergence_low, max(divergence_low, 1.0) + draw(st.floats(1e-6, 40.0))))),
        n_unfair=draw(st.integers(0, n_arms)),
        f_values=f_values,
        cheap_arm=draw(st.booleans()),
        max_attempts=draw(st.integers(1, 30)),
    )
    config.validate()
    return config


@settings(max_examples=150, deadline=None)
@given(config=_accepted_configs())
@example(config=SyntheticConfig(n_arms=3, support=5000, f_values=_step(5000, 1), max_attempts=4))
@example(config=SyntheticConfig(n_arms=3, support=5000, f_values=_step(5000, 4999), max_attempts=4))
@example(config=SyntheticConfig(n_arms=5, support=6, seed=2, fairness_eps=0.5,
                                reward_gap_band=(1e-9, 0.15), fairness_gap_band=(1e-9, 0.45)))
def test_no_precondition_breaks_on_an_accepted_config(config):
    # Whatever validate() accepts either yields an instance or fails with the
    # per-check counts; the inversion and oracle preconditions never raise.
    try:
        generate_synthetic(config)
    except GenerationFailed as failed:
        assert str(failed).startswith("no instance satisfied the configured bands")


@pytest.mark.parametrize("name", ["synth-k30", "band-k5"])
def test_bench_generations_equal_one_attempt_at_a_time(name):
    config = BENCH_CONFIGS[name]
    assert _outcome(generate_synthetic, config) == _outcome(_reference, config)


@pytest.mark.parametrize("population", [(-1.0, 1.0), (3, 7, 8), tuple(range(17))])
def test_an_integer_draw_indexes_as_choice_draws(population):
    # The generator draws x[rng.integers(0, len(x))] where it drew
    # rng.choice(x): the same values, and the generator left in the same state.
    for seed in range(50):
        by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert by_choice.choice(population) == population[by_index.integers(0, len(population))]
        assert by_choice.bit_generator.state == by_index.bit_generator.state


@pytest.mark.parametrize("buffered", [0, 1])
def test_k_scalar_sign_draws_are_one_draw_of_size_k(buffered):
    # An unclustered attempt draws its K signs as one integers(0, 2, size=K):
    # the values and the generator state of K scalar draws, also after an odd
    # number of 32-bit draws has left half of a 64-bit word buffered.
    for seed in range(300):
        one_by_one, at_once = np.random.default_rng(seed), np.random.default_rng(seed)
        K = 1 + seed % 40
        for rng in (one_by_one, at_once):
            rng.integers(0, 2, size=buffered)
        assert [one_by_one.integers(0, 2) for _ in range(K)] == at_once.integers(0, 2, size=K).tolist()
        assert one_by_one.bit_generator.state == at_once.bit_generator.state


def test_a_target_outside_gs_range_breaks_the_inversion_precondition(monkeypatch):
    # A g-level outside g's range, which the level window rules out on every
    # config validate() accepts, raises rather than rejecting the draw.
    draw = synth._draw

    def out_of_range(config, rng, attempt):
        f, fair, k_star, levels = draw(config, rng, attempt)
        return f, fair, k_star, None if levels is None else np.add(levels, 2.0)

    monkeypatch.setattr(synth, "_draw", out_of_range)
    with pytest.raises(GenerationFailed, match="inversion precondition broken: a g-level lies outside"):
        generate_synthetic(replace(LOW_BAND, max_attempts=12))


@pytest.mark.parametrize("support", [2, 20, 5000])
def test_gs_range_covers_every_level_window_up_to_support_5000(support):
    # The extreme scores for each end of g's range: a single step right after
    # v = 0 lifts g(_PARAM_LO) the most, one right before v = n lowers
    # g(_PARAM_HI) the most.  Both stay inside the padded level window.
    lifted = np.ones(support)
    lifted[0] = 0.0
    lowered = np.zeros(support)
    lowered[-1] = 1.0
    low = synth._g(np.array([synth._PARAM_LO]), lifted[None])[0]
    high = synth._g(np.array([synth._PARAM_HI]), lowered[None])[0]
    assert low < lifted[0] + synth._LEVEL_PAD
    assert high > lowered[-1] - synth._LEVEL_PAD


def test_a_draw_that_fails_the_oracle_post_check_is_never_returned(monkeypatch):
    # An oracle report that disagrees with the construction breaks a
    # precondition: the generator raises and names each property it misses.
    config = replace(LOW_BAND, max_attempts=30)
    for changed, name in [
        ({"best_fair": -1}, "best fair arm"),
        ({"fair": [], "best_fair": None}, "fair set, best fair arm"),
        ({"xi_star": 1.0}, "xi_star"),
    ]:
        def misreported(instance, eps, changed=changed):
            return {**oracle_report(instance, eps), **changed}

        monkeypatch.setattr(synth, "oracle_report", misreported)
        with pytest.raises(GenerationFailed, match=f"oracle precondition broken: {name}$"):
            generate_synthetic(config)


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("reward_low, fairness_low, broken", [
    (1e-17, 0.05, "best fair arm"),
    (1e-12, 1e-300, "fair set"),
])
def test_gap_bands_at_rounding_level_break_the_oracle_precondition(
        seed, reward_low, fairness_low, broken, monkeypatch):
    # Why validate() refuses gap bands that start below _ORACLE_TOL: there the
    # best fair arm ties, or a fair arm's |zeta| reaches the threshold, within
    # rounding.  At these seeds a draw that breaks the oracle post-check comes
    # before any that passes.
    config = SyntheticConfig(n_arms=5, support=6, seed=seed, fairness_eps=0.5,
                             reward_gap_band=(reward_low, 0.15),
                             fairness_gap_band=(fairness_low, 0.45), max_attempts=100)
    with pytest.raises(ValueError, match="reward gaps must be >= 1e-09"):
        config.validate()
    monkeypatch.setattr(SyntheticConfig, "validate", lambda self: None)
    with pytest.raises(GenerationFailed, match=f"oracle precondition broken: {broken}$"):
        generate_synthetic(config)


def test_unfair_count_is_respected():
    config = SyntheticConfig(
        n_arms=5,
        support=4,
        seed=1,
        fairness_eps=0.2,
        fairness_gap_band=(0.1, 0.15),
        reward_gap_band=(0.05, 0.15),
        n_unfair=2,
    )
    inst = generate_synthetic(config)
    report = oracle_report(inst, 0.2)
    unfair = [k for k in range(5) if k not in report["fair"]]
    assert len(unfair) == 2
    assert 0 in report["fair"]
    for k in unfair:
        assert min(abs(report["zeta_ssp"][k]), abs(report["zeta_sps"][k])) > 0.2
    # One unfair arm tempts the learner: it beats the best fair arm by
    # exactly the low reward-gap endpoint.
    best = report["best_fair"]
    lead = max(report["mu"][k] - report["mu"][best] for k in unfair)
    assert lead == pytest.approx(0.05, abs=1e-9)


def test_all_unfair_has_no_best_arm():
    config = SyntheticConfig(
        n_arms=4,
        support=4,
        seed=2,
        fairness_eps=0.1,
        fairness_gap_band=(0.3, 0.4),
        reward_gap_band=(0.05, 0.15),
        n_unfair=4,
    )
    inst = generate_synthetic(config)
    report = oracle_report(inst, 0.1)
    assert report["fair"] == []
    assert report["best_fair"] is None
    assert report["xi_star"] == pytest.approx(0.3, abs=1e-9)


def test_cheap_arm_costs():
    base = dict(
        n_arms=3,
        support=4,
        seed=0,
        fairness_eps=0.5,
        fairness_gap_band=(0.2, 0.4),
        reward_gap_band=(0.05, 0.15),
    )
    cheap = generate_synthetic(SyntheticConfig(**base, cheap_arm=True))
    assert cheap.cheap_arm_constraint
    assert [a.cost_pull for a in cheap.arms] == [0.0, 1.0, 1.0]
    assert [a.cost_force_s for a in cheap.arms] == [0.0, 1.0, 1.0]
    assert [a.cost_force_sprime for a in cheap.arms] == [0.0, 1.0, 1.0]
    flat = generate_synthetic(SyntheticConfig(**base, cheap_arm=False))
    assert not flat.cheap_arm_constraint
    assert [a.cost_pull for a in flat.arms] == [1.0, 1.0, 1.0]


def test_f_values_override_lands_in_outcome_table():
    f = (0.1, 0.4, 0.6, 0.9)
    config = SyntheticConfig(
        n_arms=3,
        support=4,
        seed=0,
        fairness_eps=0.5,
        fairness_gap_band=(0.2, 0.4),
        reward_gap_band=(0.05, 0.15),
        f_values=f,
    )
    inst = generate_synthetic(config)
    table = inst.model.cpts["Y"]
    for v, fv in enumerate(f):
        np.testing.assert_allclose(table[2 * v], (fv, 1.0 - fv), atol=1e-12)
        np.testing.assert_allclose(table[2 * v + 1], (1.0 - fv, fv), atol=1e-12)


def test_generation_is_deterministic():
    a = generate_synthetic(LOW_BAND)
    b = generate_synthetic(LOW_BAND)
    for arm_a, arm_b in zip(a.arms, b.arms):
        np.testing.assert_array_equal(arm_a.table, arm_b.table)
    shifted = generate_synthetic(
        SyntheticConfig(
            n_arms=5,
            support=4,
            seed=4,
            fairness_eps=0.5,
            fairness_gap_band=(0.3, 0.45),
            reward_gap_band=(0.05, 0.15),
            divergence_band=(1.0, 10.0),
        )
    )
    assert not np.array_equal(shifted.arms[1].table, a.arms[1].table)


def test_impossible_band_fails_fast():
    # M[k, 0] >= 1 by Jensen and the band check is strict, so no draw meets a
    # band that ends at or below 1; it is refused before the first draw.
    config = SyntheticConfig(n_arms=3, support=4, seed=0, fairness_eps=0.5,
                             fairness_gap_band=(0.2, 0.4), reward_gap_band=(0.05, 0.15),
                             max_attempts=50)
    for band in [(0.0001, 0.0002), (0.2, 0.9), (0.5, 1.0)]:
        with pytest.raises(ValueError, match="divergence_band must end above 1"):
            generate_synthetic(replace(config, divergence_band=band))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_arms": 1}, "n_arms"),
        ({"support": 1}, "support"),
        ({"epsilon_param": 0.5}, "epsilon_param"),
        ({"epsilon_param": 1.01}, "epsilon_param"),
        ({"fairness_eps": 0.0}, "fairness_eps"),
        ({"reward_gap_band": (0.3, 0.2)}, "low < high"),
        ({"divergence_band": (5.0, 5.0)}, "low < high"),
        ({"reward_gap_band": (0.0, 0.2)}, "reward gaps"),
        ({"fairness_gap_band": (0.0, 0.4)}, "fairness gaps"),
        ({"n_unfair": -1}, "n_unfair"),
        ({"n_unfair": 31}, "n_unfair"),
        ({"fairness_eps": 0.5, "fairness_gap_band": (0.6, 0.7)}, "no larger than"),
        ({"support": 3, "f_values": (0.1, 0.9)}, "one entry per"),
        ({"support": 3, "f_values": (0.9, 0.5, 0.1)}, "nondecreasing"),
        ({"support": 3, "f_values": (0.4, 0.4, 0.4)}, "nondecreasing"),
        ({"support": 3, "f_values": (0.1, 0.5, 1.1)}, "lie in"),
        ({"fairness_eps": -0.5}, "fairness_eps"),
        ({"fairness_eps": float("nan")}, "fairness_eps"),
        ({"fairness_eps": float("inf")}, "fairness_eps"),
        ({"max_attempts": 0}, "max_attempts"),
        ({"support": 5001}, "support must be <= 5000"),
        ({"reward_gap_band": (1e-10, 0.2)}, "reward gaps"),
        ({"fairness_gap_band": (1e-10, 0.4)}, "fairness gaps"),
        ({"divergence_band": (0.2, 1.0)}, "divergence_band"),
    ],
)
def test_config_validation_errors(overrides, message):
    config = SyntheticConfig(**overrides)
    with pytest.raises(ValueError, match=message):
        config.validate()
