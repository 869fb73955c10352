"""Synthetic instance family with controllable gaps and divergences.

The graph is S -> V -> Y with an exogenous noise bit feeding Y.  Each arm
replaces P(V|S) with a pair of shifted binomial rows, and Y follows a
monotone score f of V that the noise bit flips with small probability.  Both
oracle quantities then have closed forms through g(p) = E_binom(p)[f]:

    mu   = (1 - q) + (2q - 1) (g(c) + g(d)) / 2
    zeta = (2q - 1) (g(c) - g(d))

with q the noise parameter and (c, d) the per-attribute success parameters.
g is strictly increasing, so the generator hits requested reward and
fairness gaps exactly by inverting it.

Order of the checks on a draw.  The generator takes its attempts in chunks
of 1, 2, 4, ... up to 64, making every random draw of a chunk first in the
order of a one-attempt-at-a-time loop (``_draw``); no check reads the
generator, so drawing past the accepted attempt changes nothing returned.
One lane-parallel Brent pass (``_brent``, scipy's ``brentq`` roots bit for
bit) inverts every target of a chunk.  A draw is rejected, and counted, by
the first of four checks it fails: an empty level window for its best arm;
under a divergence band, a prefilter of each ``M[k, 0]`` (``_m_to_deployed``,
one pass per chunk) that rejects only beyond ``_BAND_SLACK`` times the
band's upper end, so only draws the exact check rejects; then, one candidate
at a time, ``DivergenceSet.exact``, whose columns against arm 0 must lie in
the band; and ``validate_model``, which rejects rows that underflow to zeros
at different cells per arm (every draw past a support of about 540, and
draws with roots near _PARAM_LO or _PARAM_HI well below it).  The chunks
decide only how soon a draw is rejected, never which draw is returned or
how the rejections are counted.

Two further checks are preconditions that raise GenerationFailed naming
what broke; neither fails on a config ``validate`` accepts (n = support - 1).

- Inversion.  The level window puts every target in [f[0] + _LEVEL_PAD,
  f[-1] - _LEVEL_PAD], while g(_PARAM_LO) - f[0] <= (1 - (1 - _PARAM_LO)^n)
  (f[-1] - f[0]) <= n _PARAM_LO, and f[-1] - g(_PARAM_HI) likewise, so g's
  range holds every target, by 1e-6 or more against rounding of about 1e-11,
  while n _PARAM_LO < _LEVEL_PAD (support <= 5000).
- Oracle post-check.  g' <= n, so a root within Brent's xtol of 1e-14 misses
  its g-level by at most 5e-11, and each mean, gap and ``|zeta|`` is off by
  about 1e-10.  The construction's gaps and distances are exact, the
  smallest equal to the bands' low ends, so with both low ends at
  ``_ORACLE_TOL`` (1e-9) or above the report keeps the fair set (a strict
  threshold), the best fair arm, both bands, the smallest gap and
  ``xi_star``; low ends near the rounding level break it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .divergence import DivergenceSet, _outcome_cutoff
from .errors import GenerationFailed
from .model import Arm, CausalModel, Instance, check_fairness_eps, validate_model
from .oracles import oracle_report

__all__ = ["SyntheticConfig", "generate_synthetic"]

_PARAM_LO = 1e-6
_PARAM_HI = 1.0 - 1e-6
_LEVEL_PAD = 5e-3
# P(S) of every instance: the sensitive attribute is an unbiased coin.
_P_S = np.array([0.5, 0.5])
# Relative slack of the per-arm band prefilter, far above its rounding error.
_BAND_SLACK = 1e-9
# Tolerance of the oracle post-check; both gap bands start at or above it.
_ORACLE_TOL = 1e-9
# scipy.optimize.brentq's rtol and iteration cap, at the xtol the generator asks for.
_BRENT_XTOL = 1e-14
_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_ITER = 100
# Attempts per chunk double up to this: a config whose first draw passes
# draws one attempt, a banded one draws a few hundred in a handful of passes.
_MAX_CHUNK = 64
_SIGNS = np.array([-1.0, 1.0])
# cephes lgam: its Stirling-series coefficients and log(sqrt(2 pi)).
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LOG_SQRT_2PI = 0.91893853320467274178


@dataclass
class SyntheticConfig:
    """Knobs for the generator; bands are (low, high) with low < high.

    ``reward_gap_band`` brackets the outcome gap of every suboptimal fair
    arm to the best fair arm; the smallest gap lands on the low endpoint
    exactly.  ``fairness_gap_band`` brackets every arm's distance
    ``| |zeta| - E |`` to the threshold, fair arms below and unfair arms
    above; the smallest distance lands on the low endpoint exactly.
    ``divergence_band``, when set, brackets M[k, 0] and both D[k, 0]
    columns against the deployed arm 0.
    """

    n_arms: int = 30
    support: int = 20
    seed: int = 0
    epsilon_param: float = 0.99
    fairness_eps: float = 2.0
    reward_gap_band: tuple[float, float] = (0.02, 0.25)
    fairness_gap_band: tuple[float, float] = (1.5, 1.95)
    divergence_band: tuple[float, float] | None = None
    n_unfair: int = 0
    f_values: tuple[float, ...] | None = None
    cheap_arm: bool = True
    max_attempts: int = 10_000

    def validate(self) -> None:
        if self.n_arms < 2:
            raise ValueError("n_arms must be >= 2")
        if self.support < 2:
            raise ValueError("support must be >= 2")
        if (self.support - 1) * _PARAM_LO >= _LEVEL_PAD:
            raise ValueError("support must be <= 5000, where g's range covers every level window")
        if not 0.5 < self.epsilon_param <= 1.0:
            raise ValueError("epsilon_param must lie in (0.5, 1]")
        check_fairness_eps(self.fairness_eps)
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        for name in ("reward_gap_band", "fairness_gap_band", "divergence_band"):
            band = getattr(self, name)
            if band is None:
                continue
            lo, hi = band
            if not lo < hi:
                raise ValueError(f"{name} must satisfy low < high")
        for kind, band in (("reward", self.reward_gap_band), ("fairness", self.fairness_gap_band)):
            if not band[0] >= _ORACLE_TOL:
                raise ValueError(f"{kind} gaps must be >= {_ORACLE_TOL:g}, the oracle check's tolerance")
        if self.divergence_band is not None and self.divergence_band[1] <= 1.0:
            raise ValueError("divergence_band must end above 1: M[k, 0] >= 1 for every arm")
        if not 0 <= self.n_unfair <= self.n_arms:
            raise ValueError("n_unfair must lie in [0, n_arms]")
        if self.n_unfair < self.n_arms and self.fairness_gap_band[0] > self.fairness_eps:
            raise ValueError("fair arms need a gap no larger than the threshold")
        if self.f_values is not None:
            f = np.asarray(self.f_values, dtype=float)
            if f.shape != (self.support,):
                raise ValueError("f_values must have one entry per support point")
            if np.any(np.diff(f) < 0.0) or f[0] >= f[-1]:
                raise ValueError("f_values must be nondecreasing and non-constant")
            if np.any(f < 0.0) or np.any(f > 1.0):
                raise ValueError("f_values must lie in [0, 1]")


def _build_model(config: SyntheticConfig, f: np.ndarray, arm0: np.ndarray) -> CausalModel:
    m = config.support
    q = config.epsilon_param
    # Row 2v + e is the law of Y at V=v, eps=e: the noise bit flips it.
    y_rows = np.stack([f, 1.0 - f, 1.0 - f, f], axis=1).reshape(2 * m, 2)
    return CausalModel(
        nodes=["S", "V", "eps", "Y"],
        cards={"S": 2, "V": m, "eps": 2, "Y": 2},
        parents={"S": [], "V": ["S"], "eps": [], "Y": ["V", "eps"]},
        cpts={
            "S": _P_S[None].copy(),
            "V": arm0,
            "eps": np.array([[1.0 - q, q]]),
            "Y": y_rows,
        },
        sensitive="S",
        intervention="V",
        target="Y",
        target_values=np.array([0.0, 1.0]),
    )


def _log_gamma(k: int) -> float:
    """``scipy.special.gammaln(k)`` for a positive integer ``k``, bit for bit.

    The positive-argument branches of cephes ``lgam`` in its operation order:
    below 13 the log of the exact product ``(k-1)!``, above that Stirling's
    series with the ``A`` polynomial in ``1/k^2``, from 1000 on its short
    form, and above 1e8 no series term at all.
    """
    if k < 13:
        return math.log(float(math.factorial(k - 1)))
    x = float(k)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    return q + series / x


@lru_cache(maxsize=None)
def _binom_terms(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Successes ``v``, failures ``m-1-v`` and log binomial coefficients over {0..m-1}."""
    n = m - 1
    v = np.arange(m)
    # log_gamma[j] = gammaln(j + 1) = log(j!), so the failures read it reversed.
    log_gamma = np.array([_log_gamma(j + 1) for j in range(m)])
    return v, n - v, log_gamma[n] - log_gamma - log_gamma[::-1]


def _binom_rows(m: int, p: np.ndarray) -> np.ndarray:
    """Binomial(m-1, p) pmf over {0..m-1}, one row per entry of the 1-d ``p``, in log space."""
    v, rest, log_coef = _binom_terms(m)
    return np.exp(log_coef + v * np.log(p)[:, None] + rest * np.log1p(-p)[:, None])


def _g(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``g(p[i]) = E_binom(p[i])[f[i]]`` per lane ``i``, each to the bits of ``row @ f[i]``.

    A stacked ``matmul`` of ``(1, m) @ (m, 1)`` blocks takes the 1-d dot
    product per lane; a matrix-vector product or ``einsum`` over the lanes
    sums in another order and differs in the last bit.
    """
    return np.matmul(_binom_rows(f.shape[1], p)[:, None, :], f[:, :, None])[:, 0, 0]


def _brent(f: np.ndarray, target: np.ndarray, fa: np.ndarray, fb: np.ndarray):
    """Per lane ``i``, the root of ``g - target[i]`` on [_PARAM_LO, _PARAM_HI] for the score ``f[i]``.

    A transcription of scipy's ``Zeros/brentq.c`` at xtol 1e-14 and brentq's
    rtol and iteration cap: each lane takes the steps the C routine takes,
    its branches chosen by ``np.where``, and leaves the pass once it
    converges, so every root equals ``brentq``'s bit for bit.  ``fa`` and
    ``fb`` are the lanes' values at the two ends, nonzero and of opposite
    signs.  Returns the roots and whether each lane converged; a lane that
    did not holds its last iterate.
    """
    n = len(target)
    root, converged, live = np.empty(n), np.zeros(n, dtype=bool), np.arange(n)
    xpre, xcur = np.full(n, _PARAM_LO), np.full(n, _PARAM_HI)
    fpre, fcur = np.array(fa, dtype=float), np.array(fb, dtype=float)
    xblk = fblk = spre = scur = np.zeros(n)
    for _ in range(_BRENT_ITER):
        bracket = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(bracket, xpre, xblk), np.where(bracket, fpre, fblk)
        spre, scur = np.where(bracket, xcur - xpre, spre), np.where(bracket, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
        delta = (_BRENT_XTOL + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[live[done]], converged[live[done]] = xcur[done], True
        keep = ~done
        live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
            a[keep] for a in (live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))
        if not live.size:
            break
        # Interpolate when the last two points are the bracket's, else
        # extrapolate; both are computed and the lane's branch picked.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
        far, room = np.abs(spre), 3 * np.abs(sbis) - delta
        short = ((far > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.where(far < room, far, room)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = _g(xcur, f[live]) - target[live]
    root[live] = xcur
    return root, converged


def _inside(band: tuple[float, float], values, slack: float = 0.0) -> np.ndarray:
    """Which entries lie strictly inside ``band`` widened by ``slack`` at both ends."""
    lo, hi = band
    return (values > lo - slack) & (values < hi + slack)


def _m_to_deployed(tables: np.ndarray) -> np.ndarray:
    """``M[k, 0]`` of every arm against arm 0, per draw, from ``(..., K, 2, m)`` arm tables.

    V's one parent is S, so arm 0 reaches (S, V) with mass ``P(S) * deployed``;
    a cell it never reaches gets log mass ``-inf`` and ratio 1, so it adds
    ``exp(-inf) = 0``; a ratio that overflows makes ``M`` inf.  ``DivergenceSet.exact``
    sums the same terms over the finer cells of the cell code: they agree up to rounding.
    """
    deployed = tables[..., :1, :, :]
    mass = _P_S[:, None] * deployed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_p = np.log(mass)
        w = np.where(mass > 0.0, tables / deployed, 1.0)
    return _outcome_cutoff(log_p.reshape(*log_p.shape[:-2], -1), w.reshape(*w.shape[:-2], -1))


def _draw(config: SyntheticConfig, rng: np.random.Generator, attempt: int):
    """One attempt's random draws, in the generator's fixed order.

    Returns the score ``f``, the fair arms, the best fair arm and the
    ``(K, 2)`` g-levels that each arm's two parameters must reach, or None in
    place of the levels when the best arm's level window is empty.
    """
    K, m = config.n_arms, config.support
    scale = 2.0 * config.epsilon_param - 1.0
    glo, ghi = config.reward_gap_band
    blo, bhi = config.fairness_gap_band
    eps = config.fairness_eps
    if config.f_values is not None:
        f = np.asarray(config.f_values, dtype=float)
    else:
        f = np.sort(rng.uniform(0.0, 1.0, size=m))

    ids = np.arange(K)
    if config.n_unfair == K:
        unfair = list(ids)
    elif config.n_unfair == 0:
        unfair = []
    else:
        # Arm 0 is the deployed system and stays fair when possible.
        unfair = sorted(rng.choice(ids[1:], size=config.n_unfair, replace=False))
    is_unfair = np.zeros(K, dtype=bool)
    is_unfair[unfair] = True
    fair = list(ids[~is_unfair])
    # x[rng.integers(0, len(x))] is the draw rng.choice(x) makes, at a fifth of its cost.
    k_star = int(fair[rng.integers(0, len(fair))]) if fair else None

    # Distance of |zeta| to the threshold, per arm; the smallest lands
    # exactly on the band's low endpoint.
    margins = rng.uniform(blo, bhi, size=K)
    margins[~is_unfair] = np.minimum(margins[~is_unfair], eps)
    pinned = unfair[0] if unfair else next(k for k in ids if k != k_star)
    margins[pinned] = blo
    # A low divergence band needs clustered arm parameters (one shared
    # asymmetry sign), a high band needs spread; alternate per attempt.  K
    # draws of integers(0, 2) are one draw of size K, value and stream alike.
    cluster = config.divergence_band is not None and attempt % 2 == 0
    signs = _SIGNS[rng.integers(0, len(_SIGNS), size=1 if cluster else K)]
    zeta = np.where(is_unfair, eps + margins, eps - margins) * signs

    # Reward gaps to the best fair arm; the smallest fair gap is glo
    # exactly and one unfair arm (when present) beats the best fair arm.
    delta = np.zeros(K)
    others = [k for k in fair if k != k_star]
    if others:
        delta[others] = rng.uniform(glo, ghi, size=len(others))
        delta[others[0]] = glo
    for i, k in enumerate(unfair):
        delta[k] = -glo if i == 0 else rng.uniform(glo, ghi)
    if k_star is None:
        delta[unfair[0]] = 0.0

    # Feasible window for the best arm's g-level given every arm's
    # (gap, asymmetry) pair; empty window means redraw.
    z = zeta / scale
    shift = delta / scale
    lo_req = np.max(f[0] + np.abs(z) / 2.0 + _LEVEL_PAD + shift)
    hi_req = np.min(f[-1] - np.abs(z) / 2.0 - _LEVEL_PAD + shift)
    if not lo_req < hi_req:
        return f, fair, k_star, None
    levels = rng.uniform(lo_req, hi_req) - shift
    return f, fair, k_star, np.stack([levels + z / 2.0, levels - z / 2.0], axis=1)


def _screen(config: SyntheticConfig, draws: list):
    """Yield per draw of a chunk, in order, its ``(K, 2, m)`` arm tables or the check that rejects it.

    Raises GenerationFailed on a target outside g's range, and RuntimeError,
    as brentq would, when the walk reaches an arm whose root did not converge.
    """
    band = config.divergence_band
    live = [d for d in draws if d[-1] is not None]
    if live:
        f = np.array([d[0] for d in live])
        targets = np.array([d[-1] for d in live])
        lo, hi = (_g(np.full(len(live), end), f)[:, None, None] for end in (_PARAM_LO, _PARAM_HI))
        if not ((lo < targets) & (targets < hi)).all():
            raise GenerationFailed("inversion precondition broken: a g-level lies outside g's range")
        roots, converged = _brent(np.repeat(f, targets[0].size, axis=0), targets.ravel(),
                                  (lo - targets).ravel(), (hi - targets).ravel())
        stalled = ~converged.reshape(targets.shape)
        rows = _binom_rows(config.support, roots)
        tables = (rows / rows.sum(axis=1, keepdims=True)).reshape(targets.shape + (-1,))
        if band is not None:
            near = _inside(band, _m_to_deployed(tables), _BAND_SLACK * abs(band[1]))
    j = 0
    for *_, levels in draws:
        if levels is None:
            yield "level window"
            continue
        for k in range(config.n_arms):
            if stalled[j, k].any():
                raise RuntimeError(f"Failed to converge after {_BRENT_ITER} iterations.")
            if k > 0 and band is not None and not near[j, k]:
                yield "band prefilter"
                break
        else:
            yield tables[j]
        j += 1


def generate_synthetic(config: SyntheticConfig) -> Instance:
    """Draw-and-verify loop; raises GenerationFailed when bands never hold."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    K, m = config.n_arms, config.support
    glo, ghi = config.reward_gap_band
    blo, bhi = config.fairness_gap_band
    eps = config.fairness_eps
    band = config.divergence_band
    # Draws rejected per check and the last validation problem, for the error.
    rejected = dict.fromkeys(("level window", "band prefilter", "exact band", "validation"), 0)
    problem = None

    start, size = 0, 1
    while start < config.max_attempts:
        stop = min(start + size, config.max_attempts)
        draws = [_draw(config, rng, attempt) for attempt in range(start, stop)]
        start, size = stop, min(2 * size, _MAX_CHUNK)
        for (f, fair, k_star, _), screened in zip(draws, _screen(config, draws)):
            if isinstance(screened, str):
                rejected[screened] += 1
                continue
            costs = [0.0 if (config.cheap_arm and k == 0) else 1.0 for k in range(K)]
            arms = [Arm(k, table, c, c, c) for k, (table, c) in enumerate(zip(screened, costs))]
            model = _build_model(config, f, arms[0].table.copy())
            if band is not None:
                # Rows underflowing at different cells make NaN or inf divergences: out of band.
                with np.errstate(all="ignore"):
                    div = DivergenceSet.exact(model, arms)
                if not all(_inside(band, c[1:, 0]).all() for c in (div.m, div.d_ssp, div.d_sps)):
                    rejected["exact band"] += 1
                    continue
            validation = validate_model(model, arms)
            if not validation.ok:
                rejected["validation"] += 1
                problem = validation.problems[0]
                continue

            instance = Instance(
                model=model,
                arms=arms,
                name=f"synthetic-K{K}-m{m}-seed{config.seed}",
                cheap_arm_constraint=config.cheap_arm,
                observed=["S", "V", "Y"],
                fairness_eps=eps,
            )
            report = oracle_report(instance, eps)
            gaps = [report["mu"][k_star] - report["mu"][k] for k in fair if k != k_star]
            dist = [min(abs(abs(report["zeta_ssp"][k]) - eps), abs(abs(report["zeta_sps"][k]) - eps))
                    for k in range(K)]
            broken = [name for name, holds in (
                ("fair set", set(report["fair"]) == set(fair)),
                ("best fair arm", report["best_fair"] == k_star),
                ("gap band", all(glo - _ORACLE_TOL <= gap <= ghi + _ORACLE_TOL for gap in gaps)),
                ("smallest gap", not gaps or abs(min(gaps) - glo) <= _ORACLE_TOL),
                ("distance band", all(blo - _ORACLE_TOL <= d <= bhi + _ORACLE_TOL for d in dist)),
                ("xi_star", abs(report["xi_star"] - blo) <= _ORACLE_TOL),
            ) if not holds]
            if broken:
                raise GenerationFailed(f"oracle precondition broken: {', '.join(broken)}")
            return instance

    counts = ", ".join(f"{check} {n}" for check, n in rejected.items())
    last = f"; the last validation problem: {problem}" if problem else ""
    raise GenerationFailed(
        f"no instance satisfied the configured bands in {config.max_attempts} attempts"
        f" (draws rejected per check: {counts}{last})"
    )
