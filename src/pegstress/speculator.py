"""Value-maximising trader model.

The trader holds m stablecoins and n backing coins and values them linearly
at m * s1 + n backing coins, where s1 is the present value of one
stablecoin.  s1 solves a fixed point over sell thresholds x:

    s1 = max_x (1 - delta)^(1 / F(x)) / E[p | p <= x]

with F the price CDF over the truncated support and delta the per-step
discount rate: waiting for a price below x takes 1/F(x) steps in expectation,
and the sale then yields 1/E[p | p <= x] backing per stablecoin.

A trade only beats waiting for a better price when the price leaves the
closed interval [y1, y2]:

    y1 = 1 / ((1 - d1) * s1 + d1 / E[p | p <= x1]),   d1 = (1-delta)^(1/F(x1))
    y2 = d2 * E[p | p >= x2] + (1 - d2) / s1,         d2 = (1-delta)^(1/(1-F(x2)))

where x1 maximises (1-delta)^(1/F(x)) * (1/E[p | p <= x] - s1) on [lo, 1/s1]
and x2 maximises (1-delta)^(1/(1-F(x))) * (E[p | p >= x] * s1 - 1) on
[1/s1, hi].  Both objectives are nonnegative at 1/s1, which pins
y1 <= 1/s1 <= y2.  Trade sizes are all-in up to the cash-out haircuts
lambda_buy, lambda_sell; the thresholds themselves do not depend on the
holdings or the haircuts (value is linear, so scale drops out).

Maximisation is a deterministic coarse grid (1024 points by default) followed
by golden-section refinement; ties break toward smaller x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .prices import NormalSpec, TruncatedNormal

__all__ = [
    "NoTradeInterval",
    "SpeculatorParams",
    "WaitingInterval",
    "waiting_interval",
]

GRID_POINTS = 1024
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_XTOL = 1e-8


class NoTradeInterval(ValueError):
    """No finite trade trigger exists for these parameters.

    Raised when the optimal policy is to hold forever: the price never moves
    (zero variance), or the discount is so deep that 1/s1 lies outside the
    price support and one side of the interval escapes to infinity.  Callers
    that simulate may treat this as an inert trader rather than an error.
    """


@dataclass(frozen=True)
class SpeculatorParams:
    """delta: per-step discount rate in (0, 1), 0.5 by default; haircuts in [0, 1].

    A haircut of lambda means a fraction lambda of the relevant holding is
    kept back on each trade (lambda = 1 never trades, lambda = 0 goes all-in).
    """

    delta: float = 0.5
    lambda_buy: float = 0.0
    lambda_sell: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        for name in ("lambda_buy", "lambda_sell"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class WaitingInterval:
    """Closed no-trade price interval [y1, y2] plus the quantities behind it."""

    y1: float
    y2: float
    x1: float
    x2: float
    s1: float

    def __post_init__(self) -> None:
        scale = max(1.0, abs(self.y2))
        if self.y1 > self.y2 + 1e-9 * scale:
            raise ValueError(f"waiting interval inverted: y1={self.y1} > y2={self.y2}")
        if not (self.s1 > 0.0 and math.isfinite(self.s1)):
            raise ValueError("s1 must be finite and positive")


def _argmax(f, lo: float, hi: float, grid_points: int) -> tuple[float, float]:
    """Deterministic grid scan + golden-section polish; ties go left.

    Returns (best_x, f(best_x)).  f must be finite on [lo, hi].
    """
    if hi < lo:
        raise ValueError("empty search interval")
    if hi == lo:
        return lo, f(lo)
    xs = [lo + (hi - lo) * k / (grid_points - 1) for k in range(grid_points)]
    vals = [f(x) for x in xs]
    for v in vals:
        if not math.isfinite(v):
            raise ValueError("objective is non-finite on the search interval")
    best = max(range(len(xs)), key=lambda k: (vals[k], -k))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, len(xs) - 1)]
    # Golden-section on [a, b]; keeps the strictly-better point, prefers left.
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= _XTOL:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x_star = c if fc >= fd else d
    v_star = max(fc, fd)
    if vals[best] >= v_star:
        return xs[best], vals[best]
    return x_star, v_star


def _discount_pow(one_minus_delta: float, prob: float) -> float:
    """(1 - delta)^(1 / prob), with the prob -> 0 limit taken as 0."""
    if prob <= 0.0:
        return 0.0 if one_minus_delta < 1.0 else 1.0
    return one_minus_delta ** (1.0 / prob)


def _sell_mean(tn: TruncatedNormal, x: float, c: float) -> float:
    """E[p | p <= x], which the trader's objectives divide by; must be > 0."""
    mean = tn.mean_below(x, c)
    if mean <= 0.0:
        raise ValueError(
            "conditional mean price below the threshold is not positive: the "
            "support reaches non-positive prices (support_lo must be > 0)"
        )
    return mean


def _s1(tn: TruncatedNormal, omd: float) -> float:
    """Present value of one stablecoin in backing coins, for a non-degenerate
    model; omd = 1 - delta."""

    def objective(x: float) -> float:
        x, c = tn.at(x)
        disc = _discount_pow(omd, tn.prob_below(x, c))
        if disc == 0.0:
            return 0.0
        return disc / _sell_mean(tn, x, c)

    lo, hi = tn.lo, tn.hi
    # Skip the zero-probability edge itself; the grid covers everything else.
    eps = (hi - lo) * 1e-12
    _, best = _argmax(objective, lo + eps, hi, GRID_POINTS)
    if not (best > 0.0):
        raise ValueError("stablecoin value optimisation failed (nonpositive objective)")
    return best


def waiting_interval(dist: NormalSpec, params: SpeculatorParams) -> WaitingInterval:
    """Compute the closed no-trade interval [y1, y2] for an i.i.d. price model."""
    if dist.is_point_mass:
        raise NoTradeInterval("waiting interval needs a nondegenerate distribution")
    tn = TruncatedNormal(dist)
    omd = 1.0 - params.delta
    s1 = _s1(tn, omd)
    lo, hi = tn.lo, tn.hi
    pivot = 1.0 / s1
    eps = (hi - lo) * 1e-12

    def gain_selling_at(x: float) -> float:
        # Utility gain per stablecoin of waiting to sell below x.
        x, c = tn.at(x)
        disc = _discount_pow(omd, tn.prob_below(x, c))
        if disc == 0.0:
            return 0.0
        return disc * (1.0 / _sell_mean(tn, x, c) - s1)

    def gain_buying_at(x: float) -> float:
        # Utility gain per backing coin of waiting to buy above x.
        x, c = tn.at(x)
        disc = _discount_pow(omd, 1.0 - tn.prob_below(x, c))
        if disc == 0.0:
            return 0.0
        return disc * (tn.mean_above(x, c) * s1 - 1.0)

    if pivot <= lo or pivot >= hi:
        raise NoTradeInterval(
            "1/s1 falls outside the price support; the trader would never "
            "trade on one side, so no waiting interval exists"
        )

    x1, g1 = _argmax(gain_selling_at, lo + eps, pivot, GRID_POINTS)
    x2, g2 = _argmax(gain_buying_at, pivot, hi - eps, GRID_POINTS)
    if g1 < 0.0 or g2 < 0.0:
        raise ValueError("waiting-value optimisation failed (negative gain at optimum)")

    at1 = tn.at(x1)
    d1 = _discount_pow(omd, tn.prob_below(*at1))
    y1 = 1.0 / ((1.0 - d1) * s1 + d1 / _sell_mean(tn, *at1))
    at2 = tn.at(x2)
    d2 = _discount_pow(omd, 1.0 - tn.prob_below(*at2))
    y2 = d2 * tn.mean_above(*at2) + (1.0 - d2) / s1
    return WaitingInterval(y1=y1, y2=y2, x1=x1, x2=x2, s1=s1)
