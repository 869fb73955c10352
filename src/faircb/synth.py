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

Order of the checks on a draw.  The arms are built one at a time: arm k's
two parameters are inverted, its table is built, and under a divergence band
``M[k, 0]`` is prefiltered at once, in closed form from P(S) and the two V
tables (``_m_to_deployed``).  That sum runs in another order than
``DivergenceSet.exact``'s, so the prefilter rejects a draw only when
``M[k, 0]`` lies outside the band by more than ``_BAND_SLACK`` times its
upper end, far beyond the rounding between the two.  Most draws of a banded
config end there, after one or two arms.  A draw whose arms all pass goes on
to ``DivergenceSet.exact``, whose ``M[:, 0]``, ``D_ssp[:, 0]`` and
``D_sps[:, 0]`` must lie inside the band, then to ``validate_model`` (once
per such candidate, and no instance is returned without it), then to the
exact oracle report, which reduces the cell laws the divergences built.  All
random draws of an attempt happen before its first inversion, no check reads
the generator and the prefilter rejects only draws the exact check rejects,
so the order decides only how soon a draw is rejected, never which draw is
returned.  The root finder computes the binomial coefficients once per
support size and the bracket values ``g(lo)`` and ``g(hi)`` once per attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .allocation import _scipy_extension
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
# The C routine that scipy.optimize.brentq wraps, called with brentq's default
# rtol; g is finite on the bracket, so brentq's NaN check would never fire.
_zeros = _scipy_extension("scipy.optimize._zeros")
_BRENT_RTOL = 4 * np.finfo(float).eps
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


def _binom_row(m: int, p: float) -> np.ndarray:
    """Binomial(m-1, p) pmf over {0..m-1}, in one vectorized log-space pass."""
    v, rest, log_coef = _binom_terms(m)
    return np.exp(log_coef + v * np.log(p) + rest * np.log1p(-p))


def _g_factory(m: int, f: np.ndarray):
    def g(p: float) -> float:
        return float(_binom_row(m, p) @ f)

    return g


def _invert_g(g, bracket: tuple[float, float], target: float) -> float | None:
    """The parameter with ``g = target``; ``bracket`` holds ``g`` at both parameter bounds."""
    lo, hi = bracket
    if not lo < target < hi:
        return None
    # xtol, rtol, maxiter, args, full_output, disp: brentq(..., xtol=1e-14).
    return _zeros._brentq(
        lambda p: g(p) - target, _PARAM_LO, _PARAM_HI, 1e-14, _BRENT_RTOL, 100, (), False, True
    )


def _inside(band: tuple[float, float], values, slack: float = 0.0) -> bool:
    """Whether every entry lies strictly inside ``band`` widened by ``slack`` at both ends."""
    lo, hi = band
    return bool(np.all(values > lo - slack) and np.all(values < hi + slack))


def _m_to_deployed(deployed: np.ndarray, table: np.ndarray) -> float:
    """``M[k, 0]`` of the arm ``table`` against the ``deployed`` arm 0, in closed form.

    V's one parent is S, so arm 0 reaches (S, V) with mass ``P(S) * deployed``.
    ``DivergenceSet.exact`` sums the same terms over the finer cells of the
    cell code, so the two agree only up to rounding.
    """
    mass = _P_S[:, None] * deployed
    at = mass > 0.0
    return float(_outcome_cutoff(np.log(mass[at]), table[at] / deployed[at]))


def generate_synthetic(config: SyntheticConfig) -> Instance:
    """Draw-and-verify loop; raises GenerationFailed when bands never hold."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    K, m = config.n_arms, config.support
    scale = 2.0 * config.epsilon_param - 1.0
    glo, ghi = config.reward_gap_band
    blo, bhi = config.fairness_gap_band
    eps = config.fairness_eps
    band = config.divergence_band
    # Draws rejected per check and the last validation problem, for the error.
    rejected = dict.fromkeys(
        ("level window", "inversion", "band prefilter", "exact band", "validation", "oracle"), 0)
    problem = None

    for attempt in range(config.max_attempts):
        if config.f_values is not None:
            f = np.asarray(config.f_values, dtype=float)
        else:
            f = np.sort(rng.uniform(0.0, 1.0, size=m))
        g = _g_factory(m, f)

        ids = np.arange(K)
        if config.n_unfair == K:
            unfair = list(ids)
        elif config.n_unfair == 0:
            unfair = []
        else:
            # Arm 0 is the deployed system and stays fair when possible.
            unfair = sorted(rng.choice(ids[1:], size=config.n_unfair, replace=False))
        fair = [k for k in ids if k not in set(unfair)]
        k_star = int(rng.choice(fair)) if fair else None

        # Distance of |zeta| to the threshold, per arm; the smallest lands
        # exactly on the band's low endpoint.
        margins = rng.uniform(blo, bhi, size=K)
        for k in fair:
            margins[k] = min(margins[k], eps)
        pinned = unfair[0] if unfair else next(k for k in ids if k != k_star)
        margins[pinned] = blo
        # A low divergence band needs clustered arm parameters (one shared
        # asymmetry sign), a high band needs spread; alternate per attempt.
        cluster = band is not None and attempt % 2 == 0
        shared = rng.choice((-1.0, 1.0)) if cluster else None
        zeta = np.empty(K)
        for k in ids:
            level = eps + margins[k] if k in set(unfair) else eps - margins[k]
            zeta[k] = level * (shared if shared is not None else rng.choice((-1.0, 1.0)))

        # Reward gaps to the best fair arm; the smallest fair gap is glo
        # exactly and one unfair arm (when present) beats the best fair arm.
        delta = np.zeros(K)
        others = [k for k in fair if k != k_star]
        if others:
            delta_vals = rng.uniform(glo, ghi, size=len(others))
            delta_vals[0] = glo
            for k, d in zip(others, delta_vals):
                delta[k] = d
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
            rejected["level window"] += 1
            continue
        a_star = rng.uniform(lo_req, hi_req)
        levels = a_star - shift

        # One arm at a time: invert, build, and (banded) prefilter M[k, 0]
        # at once, so a draw ends at its first arm clearly outside the band.
        bracket = g(_PARAM_LO), g(_PARAM_HI)
        arms = []
        for k in range(K):
            c = _invert_g(g, bracket, levels[k] + z[k] / 2.0)
            d = _invert_g(g, bracket, levels[k] - z[k] / 2.0)
            if c is None or d is None:
                rejected["inversion"] += 1
                break
            table = np.vstack([_binom_row(m, c), _binom_row(m, d)])
            table = table / table.sum(axis=1, keepdims=True)
            if k > 0 and band is not None and not _inside(
                band, _m_to_deployed(arms[0].table, table), _BAND_SLACK * abs(band[1])
            ):
                rejected["band prefilter"] += 1
                break
            cost = 0.0 if (config.cheap_arm and k == 0) else 1.0
            arms.append(Arm(k, table, cost, cost, cost))
        if len(arms) < K:
            continue
        model = _build_model(config, f, arms[0].table.copy())
        if band is not None:
            div = DivergenceSet.exact(model, arms)
            if not all(_inside(band, c[1:, 0]) for c in (div.m, div.d_ssp, div.d_sps)):
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
