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

Maximisation is a deterministic coarse grid of 1024 points followed by
golden-section refinement one point at a time; ties break toward smaller x.
The grid is scored at 33 knots, then only in the cells between knots that
can beat the best of them (_argmax), which finds a full scan's best point.
A point whose discount underflows to 0 scores 0, so an empty event there
raises nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .prices import NormalSpec, TruncatedNormal, mean_of

__all__ = [
    "NoTradeInterval",
    "SpeculatorParams",
    "WaitingInterval",
    "waiting_interval",
]

GRID_POINTS = 1024
# The grid's k, converted to float once: the same floats as the int k.
_GRID_STEPS = [float(k) for k in range(GRID_POINTS)]
# Every 32nd grid index and the last: scored first, to bound the cells between.
_KNOTS = [*range(0, GRID_POINTS - 1, 32), GRID_POINTS - 1]
# A cell is skipped when its bound is below the best knot by this relative
# margin and both its end events hold this much mass; tail's cancellation
# noise in thinner events can exceed the margin.
_PRUNE_MARGIN = 1e-6
_PRUNE_MASS = 1e-6
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
    """No-trade interval [y1, y2] and the quantities behind it, in the order analyze reports them."""

    s1: float
    y1: float
    y2: float
    x1: float
    x2: float

    def __post_init__(self) -> None:
        scale = max(1.0, abs(self.y2))
        if self.y1 > self.y2 + 1e-9 * scale:
            raise ValueError(f"waiting interval inverted: y1={self.y1} > y2={self.y2}")
        if not (self.s1 > 0.0 and math.isfinite(self.s1)):
            raise ValueError("s1 must be finite and positive")


def _argmax(tn: TruncatedNormal, below: bool, value, lo: float, hi: float) -> tuple[float, float]:
    """Deterministic grid scan + golden-section polish; ties go left.

    value(prob, mean) scores a pair of tn.tail(xs, below), or raises the
    point's ValueError, and must be finite on [lo, hi].  Where positive it
    does not fall as prob rises, nor rise with the mean below x (fall with
    it above), so no point of a cell between knots beats max(0, value(its
    larger prob, its mean on value's side)).  Cells whose bound is below the
    best knot are not scored: the result, and the first error in grid order,
    are a full scan's.  Returns (best_x, value there).
    """
    if hi < lo:
        raise ValueError("empty search interval")

    def f(x: float) -> float:
        return value(*tn.tail([x], below)[0])

    if hi == lo:
        return lo, f(lo)
    span, last = hi - lo, GRID_POINTS - 1
    xs = [lo + span * k / last for k in _GRID_STEPS]
    ends = tn.tail([xs[k] for k in _KNOTS], below)
    knots: list[float | ValueError] = []
    for prob, mean in ends:
        try:
            knots.append(value(prob, mean))
        except ValueError as exc:
            knots.append(exc)
    scores = [v for v in knots if not isinstance(v, ValueError)]
    cut = max(scores) if scores else math.nan
    cut -= _PRUNE_MARGIN * abs(cut)
    vals: list[float] = []
    at: list[int] = []
    for i, (k, v) in enumerate(zip(_KNOTS, knots)):
        if isinstance(v, ValueError):
            raise v
        vals.append(v)
        at.append(k)
        if k == last:
            break
        (p0, m0), (p1, m1) = ends[i], ends[i + 1]
        if min(p0, p1) * tn.mass >= _PRUNE_MASS:
            try:
                bound = max(0.0, value(p1, m0) if below else value(p0, m1))
            except ValueError:
                bound = math.inf
            if bound < cut:
                continue
        end = _KNOTS[i + 1]
        vals += [value(prob, mean) for prob, mean in tn.tail(xs[k + 1 : end], below)]
        at += range(k + 1, end)
    for v in vals:
        if not math.isfinite(v):
            raise ValueError("objective is non-finite on the search interval")
    j = vals.index(max(vals))
    best = at[j]
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, last)]
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
    if vals[j] >= v_star:
        return xs[best], vals[j]
    return x_star, v_star


def _discount_pow(one_minus_delta: float, prob: float) -> float:
    """(1 - delta)^(1 / prob), with the prob -> 0 limit taken as 0."""
    if prob <= 0.0:
        return 0.0 if one_minus_delta < 1.0 else 1.0
    return one_minus_delta ** (1.0 / prob)


def _sell_mean(mean: float | ValueError) -> float:
    """E[p | p <= x] from TruncatedNormal.tail, which the trader's objectives divide by; must be > 0."""
    if mean_of(mean) <= 0.0:
        raise ValueError(
            "conditional mean price below the threshold is not positive: the "
            "support reaches non-positive prices (support_lo must be > 0)"
        )
    return mean


def _s1(tn: TruncatedNormal, omd: float) -> float:
    """Present value of one stablecoin in backing coins, for a non-degenerate
    model; omd = 1 - delta."""

    def value(prob: float, mean: float | ValueError) -> float:
        disc = _discount_pow(omd, prob)
        return 0.0 if disc == 0.0 else disc / _sell_mean(mean)

    lo, hi = tn.lo, tn.hi
    # Skip the zero-probability edge itself; the grid covers everything else.
    eps = (hi - lo) * 1e-12
    _, best = _argmax(tn, True, value, lo + eps, hi)
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

    def gain_selling(prob: float, mean: float | ValueError) -> float:
        # Utility gain per stablecoin of waiting to sell below x.
        disc = _discount_pow(omd, prob)
        return 0.0 if disc == 0.0 else disc * (1.0 / _sell_mean(mean) - s1)

    def gain_buying(prob: float, mean: float | ValueError) -> float:
        # Utility gain per backing coin of waiting to buy above x.
        disc = _discount_pow(omd, prob)
        return 0.0 if disc == 0.0 else disc * (mean_of(mean) * s1 - 1.0)

    if pivot <= lo or pivot >= hi:
        raise NoTradeInterval(
            "1/s1 falls outside the price support; the trader would never "
            "trade on one side, so no waiting interval exists"
        )

    x1, g1 = _argmax(tn, True, gain_selling, lo + eps, pivot)
    x2, g2 = _argmax(tn, False, gain_buying, pivot, hi - eps)
    if g1 < 0.0 or g2 < 0.0:
        raise ValueError("waiting-value optimisation failed (negative gain at optimum)")

    ((p1, mean1),) = tn.tail([x1], True)
    d1 = _discount_pow(omd, p1)
    y1 = 1.0 / ((1.0 - d1) * s1 + d1 / _sell_mean(mean1))
    ((p2, mean2),) = tn.tail([x2], False)
    d2 = _discount_pow(omd, p2)
    y2 = d2 * mean_of(mean2) + (1.0 - d2) / s1
    return WaitingInterval(s1=s1, y1=y1, y2=y2, x1=x1, x2=x2)
