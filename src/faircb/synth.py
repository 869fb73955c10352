"""Synthetic instance family with controllable gaps and divergences.

The graph is S -> V -> Y with an exogenous noise bit feeding Y.  Each arm
replaces P(V|S) with a pair of shifted binomial rows, and Y follows a
monotone score f of V that the noise bit flips with small probability.  Both
oracle quantities then have closed forms through g(p) = E_binom(p)[f]:

    mu   = (1 - q) + (2q - 1) (g(c) + g(d)) / 2
    zeta = (2q - 1) (g(c) - g(d))

with q the noise parameter and (c, d) the per-attribute success parameters.
g is strictly increasing, so the generator hits requested reward and
fairness gaps exactly by inverting it, then keeps only draws whose exact
oracle report and divergence matrices satisfy the configured bands.

Order of the checks on a draw.  The generator takes its attempts in chunks
of 1, 2, 4, ... up to 64.  It first makes every random draw of a chunk, one
attempt after another in the order of a one-attempt-at-a-time loop
(``_draw``).  No check reads the generator and each attempt's draws are
fixed before its first inversion, so drawing past the attempt that is
accepted changes nothing that is returned.  Then one lane-parallel Brent pass
(``_brent``, the roots of scipy's ``brentq`` bit for bit) inverts both
parameters of every arm of the chunk, and under a divergence band one pass
prefilters ``M[k, 0]`` of every arm against its draw's arm 0, in closed form
from P(S) and the two V tables (``_m_to_deployed``).  That sum runs in
another order than ``DivergenceSet.exact``'s, so the prefilter rejects a draw
only when ``M[k, 0]`` lies outside the band by more than ``_BAND_SLACK``
times its upper end, far beyond the rounding between the two.  The draws are
then walked in order, and a draw's first failing arm decides how it is
counted: a target outside g's range as an inversion, an ``M[k, 0]`` outside
the band as a band prefilter.  Most draws of a banded config end there.  A
draw whose arms all pass goes on to ``DivergenceSet.exact``, whose
``M[:, 0]``, ``D_ssp[:, 0]`` and ``D_sps[:, 0]`` must lie inside the band,
then to ``validate_model`` (once per such candidate, and no instance is
returned without it), then to the exact oracle report, which reduces the cell
laws the divergences built; these checks take one candidate at a time.  The
prefilter rejects only draws the exact check rejects, so the chunks and the
order of the checks decide only how soon a draw is rejected, never which draw
is returned or how the rejections are counted.
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
        if self.reward_gap_band[0] <= 0.0:
            raise ValueError("reward gaps must be positive")
        if self.fairness_gap_band[0] <= 0.0:
            raise ValueError("fairness gaps must be positive")
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
    y_rows = np.empty((2 * m, 2))
    for v in range(m):
        y_rows[2 * v] = (f[v], 1.0 - f[v])
        y_rows[2 * v + 1] = (1.0 - f[v], f[v])
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
    ``exp(-inf) = 0``.  ``DivergenceSet.exact`` sums the same terms over the
    finer cells of the cell code, so the two agree only up to rounding.
    """
    deployed = tables[..., :1, :, :]
    mass = _P_S[:, None] * deployed
    with np.errstate(divide="ignore", invalid="ignore"):
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

    One ``_brent`` pass inverts every target of the chunk and, under a
    divergence band, one ``_m_to_deployed`` pass prefilters every arm.  A draw
    is rejected at its first arm with a target outside g's range
    ("inversion") or with ``M[k, 0]`` clearly outside the band ("band
    prefilter").  A root that did not converge raises RuntimeError when the
    walk reaches its arm, as brentq would in a one-attempt-at-a-time loop.
    """
    band = config.divergence_band
    live = [d for d in draws if d[-1] is not None]
    if live:
        f = np.array([d[0] for d in live])
        targets = np.array([d[-1] for d in live])
        lo, hi = (_g(np.full(len(live), end), f)[:, None, None] for end in (_PARAM_LO, _PARAM_HI))
        inside = (lo < targets) & (targets < hi)
        lanes = np.flatnonzero(inside)
        draw_of = lanes // targets[0].size
        t = targets.ravel()[lanes]
        roots, converged = _brent(f[draw_of], t, lo.ravel()[draw_of] - t, hi.ravel()[draw_of] - t)
        stalled = np.zeros(targets.size, dtype=bool)
        stalled[lanes] = ~converged
        stalled = stalled.reshape(targets.shape)
        rows = np.full((targets.size, config.support), np.nan)
        rows[lanes] = _binom_rows(config.support, roots)
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
            if not inside[j, k].all():
                yield "inversion"
                break
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
    rejected = dict.fromkeys(
        ("level window", "inversion", "band prefilter", "exact band", "validation", "oracle"), 0)
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
            arms = []
            for k, table in enumerate(screened):
                cost = 0.0 if (config.cheap_arm and k == 0) else 1.0
                arms.append(Arm(k, table, cost, cost, cost))
            model = _build_model(config, f, arms[0].table.copy())
            if band is not None:
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
            dist = [
                min(abs(abs(report["zeta_ssp"][k]) - eps), abs(abs(report["zeta_sps"][k]) - eps))
                for k in range(K)
            ]
            if (set(report["fair"]) != set(fair) or report["best_fair"] != k_star
                    or not all(glo - 1e-9 <= gap <= ghi + 1e-9 for gap in gaps)
                    or (gaps and abs(min(gaps) - glo) > 1e-9)
                    or not all(blo - 1e-9 <= d_ <= bhi + 1e-9 for d_ in dist)
                    or abs(report["xi_star"] - blo) > 1e-9):
                rejected["oracle"] += 1
                continue
            return instance

    counts = ", ".join(f"{check} {n}" for check, n in rejected.items())
    last = f"; the last validation problem: {problem}" if problem else ""
    raise GenerationFailed(
        f"no instance satisfied the configured bands in {config.max_attempts} attempts"
        f" (draws rejected per check: {counts}{last})"
    )
