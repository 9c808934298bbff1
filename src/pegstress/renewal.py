"""The mean depletion time of the all-in trader, by renewal theory.

The round matrix (rounds.py) gives the round at which the *expected*
backing reaches the target, n0 + reserves0.  A simulation reports the
*mean* round at which a trial's backing first does, which is not the same
number.  For the trader who trades all it holds (both haircuts 0, no
stablecoins at the start), a round multiplies the backing by f p_b / p_s:
it mints with all of it at p_b, the first price above y2, and redeems all
at p_s, the next price below y1, with f = (1 - eps_beta) / (1 + eps_alpha).
So ln n is a random walk with i.i.d. steps X = ln(p_b / p_s) + ln f, and the
depletion round is its first passage over c = ln((n0 + reserves0) / n0).

That needs tail expectations of ln p, which the truncated normal's x f
expansion (prices.py) does not give: tail_expect integrates any g over a
tail by Gauss-Legendre quadrature, on the standard library alone.

cli analyze imports this module only when it reports a first passage, so
importing the package compiles none of it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from operator import mul

from .prices import NormalSpec, TruncatedNormal
from .speculator import WaitingInterval

__all__ = ["tail_expect", "FirstPassage", "first_passage"]

# Nodes per panel of tail_expect: within 1e-11 of adaptive quadrature for
# sigma up to mu / 2, floored supports included.
_GL_NODES = 16


@cache
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point Gauss-Legendre rule on [-1, 1], as (nodes, weights): the
    roots of the Legendre polynomial P_n by Newton's method, P_n by its
    three-term recurrence."""
    rule = []
    for k in range(1, n + 1):
        t = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, t
            for m in range(2, n + 1):
                p0, p1 = p1, ((2 * m - 1) * t * p1 - (m - 1) * p0) / m
            slope = n * (t * p1 - p0) / (t * t - 1.0)
            t -= p1 / slope
            if abs(p1 / slope) <= 1e-16:
                break
        rule.append((t, 2.0 / ((1.0 - t * t) * slope * slope)))
    return tuple(zip(*rule))


def tail_expect(tn: TruncatedNormal, x: float, below: bool, *gs: Callable[[float], float]) -> list[float]:
    """E[g(p) | p <= x] (below) or E[g(p) | p >= x] under tn, on its support,
    for each g of gs, in one pass.

    Gauss-Legendre quadrature, _GL_NODES nodes a panel.  The panels run from
    x out to the support's edge, each at most 6 sigma wide and at most a
    factor e^2 wide, so that a g singular at 0, like ln p, stays smooth on
    it: one panel for a tail of a support mu -/+ 6 sigma clear of 0.  Toward
    an edge floored near 0 the density is nearly flat and ln p is the smooth
    variable: past the first panel that the factor limits, the panels are in
    ln p, each twice as wide as the one before.  Each mean is a ratio of two
    sums over the same nodes, so the density's scale cancels; it is taken
    relative to its largest value on the event, so no exp() underflows.
    """
    mu, sigma = tn.mu, tn.sigma
    lo, hi = (tn.lo, min(x, tn.hi)) if below else (max(x, tn.lo), tn.hi)
    if not tn.lo > 0.0:
        raise ValueError("tail_expect integrates in ln p near 0: support_lo must be > 0")
    if not lo < hi:
        raise ValueError(f"empty conditioning event: {{p {'<=' if below else '>='} x}} misses the support")
    near = 0.0 if lo <= mu <= hi else min((lo - mu) ** 2, (hi - mu) ** 2) / tn.sigma2
    exp, scale, top = math.exp, -0.5 / tn.sigma2, 0.5 * near
    nodes, weights = _gauss_legendre(_GL_NODES)
    ps: list[float] = []
    fs: list[float] = []
    a, width = (hi if below else lo), 2.0
    while lo < a if below else a < hi:
        step, bound = (a - 6.0 * sigma, a * exp(-width)) if below else (a + 6.0 * sigma, a * exp(width))
        b = max(lo, step, bound) if below else min(hi, step, bound)
        if width > 2.0:  # past the first panel a factor e^2 wide: in ln p
            half = 0.5 * math.log(b / a)
            mid = math.log(a) + half
            panel = [exp(mid + half * t) for t in nodes]
            fs += [half * w * p * exp(top + scale * (p - mu) ** 2) for p, w in zip(panel, weights)]
        else:
            half = 0.5 * (b - a)
            mid = a + half
            panel = [mid + half * t for t in nodes]
            fs += [half * w * exp(top + scale * (p - mu) ** 2) for p, w in zip(panel, weights)]
        if step < bound if below else step > bound:
            width *= 2.0
        ps += panel
        a = b
    mass = sum(fs)
    return [sum(map(mul, fs, map(g, ps))) / mass for g in gs]


@dataclass(frozen=True)
class FirstPassage:
    """The all-in trader's mean depletion time, as the walk's first passage.

    log_drift is E[X].  Where it is > 0, renewal theory's second-order term
    gives rounds = E[N] ~ c / E[X] + E[X^2] / (2 E[X]^2) (Feller, vol. II),
    and Wald's identity timesteps = E[N] (i + j), a round lasting i + j
    steps on average.  Where it is <= 0 the backing does not grow on
    average: depletion is not certain, and rounds and timesteps are None.
    """

    log_drift: float
    rounds: float | None
    timesteps: float | None


def first_passage(
    dist: NormalSpec, interval: WaitingInterval, n0: float, reserves0: float, eps_alpha: float = 0.0,
    eps_beta: float = 0.0,
) -> FirstPassage:
    """FirstPassage of the all-in trader with band interval on i.i.d. prices
    of dist, starting from n0 > 0 backing and no stablecoins.  E[X] and
    Var X come from the moments of ln p on each tail (tail_expect)."""
    if not n0 > 0.0:
        raise ValueError("n0 must be > 0: a trader with no backing never starts a round")
    tn = TruncatedNormal(dist)
    log = math.log
    (buy, buy2), (sell, sell2) = (tail_expect(tn, x, below, log, lambda p: log(p) ** 2)
                                  for x, below in ((interval.y2, False), (interval.y1, True)))
    var_buy, var_sell = buy2 - buy * buy, sell2 - sell * sell
    drift = buy - sell + math.log((1.0 - eps_beta) / (1.0 + eps_alpha))
    if not drift > 0.0:
        return FirstPassage(drift, None, None)
    rounds = math.log1p(reserves0 / n0) / drift + 0.5 + (var_buy + var_sell) / (2.0 * drift * drift)
    (tail_sell, _), = tn.tail([interval.y1], True)
    (tail_buy, _), = tn.tail([interval.y2], False)
    return FirstPassage(drift, rounds, rounds * (1.0 / tail_buy + 1.0 / tail_sell))
