"""Stability criteria and profit oracles.

The long-run stability of the window mechanism hinges on the tail of 1/p_t:
with constant fee rates the window survives a sensitive trader iff

    L := (1 + eps_alpha) liminf(1/p_t) - (1 - eps_beta) limsup(1/p_t) > 0

(and only if L >= 0).  With a symmetric fee eps on both legs the threshold is

    eps* = (limsup - liminf) / (limsup + liminf).

Finite data cannot produce true limits, so tail_spread reports trailing-window
min/max of 1/p as labelled estimates.

The profit oracles quantify what an omniscient trader could extract.  A
schedule is all-in/all-out: minting at price p turns one backing coin into
p / (1 + eps_alpha) stablecoins, redeeming turns one stablecoin into
(1 - eps_beta) / p backing coins, so a buy-sell pair multiplies wealth by
(p_buy / p_sell) * (1 - eps_beta) / (1 + eps_alpha).  The linear-time
ledger (best all-out / best all-in wealth so far) attains the maxima of every
alternating schedule: its trace is greedy_threshold_profit, and
run_omniscient rebuilds one optimal schedule from the steps where it improved.
The tests check it against an exhaustive search on short series that builds
its products from the same per-action factors (_buy_factor, _sell_factor), so
the two agree bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .mechanism import apply_trade, check_schedule
from .prices import PriceSeries

__all__ = [
    "TailSpread",
    "tail_spread",
    "L_criterion",
    "stability_label",
    "min_fee",
    "converging_spread_series",
    "greedy_threshold_profit",
    "OmniscientRun",
    "run_omniscient",
]

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class TailSpread:
    """Trailing-window estimates of liminf/limsup of 1/p (heuristic proxies)."""

    inv_liminf_est: float
    inv_limsup_est: float
    tail_fraction: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.inv_liminf_est <= self.inv_limsup_est):
            raise ValueError("need 0 <= inv_liminf_est <= inv_limsup_est")
        if not (0.0 < self.tail_fraction <= 1.0):
            raise ValueError("tail_fraction must lie in (0, 1]")


def tail_spread(series: PriceSeries, tail_fraction: float = 0.5) -> TailSpread:
    """Estimate the 1/p tail spread from the trailing window of a series.

    The window holds the last ceil(tail_fraction * len) prices; min/max of
    1/p over it stand in for liminf/limsup.  Finite windows can only
    approximate true limits, so treat the output as an estimate.
    """
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must lie in (0, 1]")
    count = math.ceil(tail_fraction * len(series))
    tail = series.prices[len(series) - count :]
    if not tail:
        raise ValueError("empty tail")
    invs = [1.0 / p for p in tail]
    return TailSpread(
        inv_liminf_est=min(invs), inv_limsup_est=max(invs), tail_fraction=tail_fraction
    )


def L_criterion(eps_alpha: float, eps_beta: float, spread: TailSpread) -> float:
    """L = (1 + eps_alpha) * liminf(1/p) - (1 - eps_beta) * limsup(1/p)."""
    return (1 + eps_alpha) * spread.inv_liminf_est - (1 - eps_beta) * spread.inv_limsup_est


def stability_label(
    eps_alpha: float, eps_beta: float, spread: TailSpread, boundary_tol: float = BOUNDARY_TOL
) -> str:
    """Classify the L criterion: "stable", "boundary", or "at-risk".

    boundary_tol is relative to the magnitude of the two terms, so the label
    never flips on rounding noise.  Pass a larger tolerance when the spread
    itself is a rough finite-sample estimate.
    """
    if not (math.isfinite(boundary_tol) and boundary_tol >= 0.0):
        raise ValueError("boundary_tol must be finite and >= 0")
    value = L_criterion(eps_alpha, eps_beta, spread)
    scale = (1 + eps_alpha) * spread.inv_liminf_est + (1 - eps_beta) * spread.inv_limsup_est
    if abs(value) <= boundary_tol * max(scale, 1e-300):
        return "boundary"
    return "stable" if value > 0 else "at-risk"


def min_fee(spread: TailSpread):
    """Symmetric fee threshold (limsup - liminf) / (limsup + liminf) of 1/p."""
    total = spread.inv_limsup_est + spread.inv_liminf_est
    if total == 0:
        raise ValueError("degenerate spread: both tail estimates are zero")
    return (spread.inv_limsup_est - spread.inv_liminf_est) / total


def converging_spread_series(pairs: int, inv_lo: float = 1.0, inv_hi: float = 2.0) -> PriceSeries:
    """Series whose 1/p oscillates toward [inv_lo, inv_hi] from the outside.

    Pair k (k = 2..pairs+1) contributes inverse prices inv_lo - 1/k and
    inv_hi + 1/k, so every finite trailing window overstates the true spread:
    liminf(1/p) = inv_lo and limsup(1/p) = inv_hi in the limit, but min/max
    over any window land strictly outside.  Handy for exercising tolerance
    handling in the stability classifier.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    if not (0.0 < inv_lo <= inv_hi):
        raise ValueError("need 0 < inv_lo <= inv_hi")
    if inv_lo <= 0.5:
        raise ValueError("inv_lo must exceed 0.5 so every perturbed value stays positive")
    prices = []
    for k in range(2, pairs + 2):
        prices.append(1.0 / (inv_lo - 1.0 / k))
        prices.append(1.0 / (inv_hi + 1.0 / k))
    return PriceSeries(prices=tuple(prices), source="converging_spread")


def _buy_factor(p: float, eps_alpha: float) -> float:
    # Stablecoins minted per backing coin spent.
    return p / (1.0 + eps_alpha)


def _sell_factor(p: float, eps_beta: float) -> float:
    # Backing coins received per stablecoin redeemed.
    return (1.0 - eps_beta) / p


def _ledger(prices, eps_alpha: float, eps_beta: float, n0: float) -> tuple[list[float], list[int], list[int]]:
    """The linear-time profit ledger: one forward pass over the prices.

    Tracks the best achievable all-out wealth multiple and the best all-in
    stablecoin multiple; each price may extend either by one action.  Returns
    the profit trace scaled by n0, the ascending steps where a sell raised the
    all-out best and those where a buy raised the all-in best.  The step is
    read off the trace's length when a best improves, which is rare, rather
    than counted at every price.
    """
    best_out, best_in = 1.0, 0.0
    trace, sells, buys = [], [], []
    for p in prices:
        new_in = best_out * _buy_factor(p, eps_alpha)
        new_out = best_in * _sell_factor(p, eps_beta)
        if new_in > best_in:
            best_in = new_in
            buys.append(len(trace))
        if new_out > best_out:
            best_out = new_out
            sells.append(len(trace))
        trace.append(n0 * (best_out - 1.0))
    return trace, sells, buys


def greedy_threshold_profit(
    series: PriceSeries, eps_alpha: float, eps_beta: float, n0: float = 1.0
) -> tuple[float, ...]:
    """Optimal-trader profit trace in linear time.

    The ledger's dynamic program ranges over exactly the alternating
    schedules an exhaustive search enumerates, so the traces agree exactly.
    """
    return tuple(_ledger(series.prices, eps_alpha, eps_beta, n0)[0])


@dataclass(frozen=True)
class OmniscientRun:
    """Outcome of replaying an optimal schedule against finite reserves."""

    depleted: bool
    depletion_step: int | None
    r_min: float
    final_backing: float
    steps: int


def run_omniscient(
    series: PriceSeries, eps_alpha: float, eps_beta: float, reserves0: float, n0: float = 1.0
) -> OmniscientRun:
    """Plan the optimal schedule for the whole series, then settle it for real.

    Planning ignores reserve caps (the oracle's world); settlement does not:
    a redemption the reserves cannot cover pays out what is left and breaks
    the window, at which point the run stops.
    """
    check_schedule(reserves0, eps_alpha, eps_beta)
    prices = series.prices
    _, sells, buys = _ledger(prices, eps_alpha, eps_beta, n0)
    # One optimal schedule, rebuilt backwards (all-out at the end): the last
    # sell that raised the all-out best, the last buy before it, and so on.
    schedule = []
    bound = len(prices)
    while (k := bisect_left(sells, bound)) and (b := bisect_left(buys, sells[k - 1])):
        bound = buys[b - 1]
        schedule.append((bound, sells[k - 1]))
    # Settlement against the actual mechanism.  Reserves move only at these
    # trades and a buy only adds to them, so r_min is read once per round trip.
    reserves = r_min = reserves0
    backing = n0
    coins = 0.0
    for buy, sell in reversed(schedule):
        if backing > 0.0:
            p = prices[buy]
            delta = backing * _buy_factor(p, eps_alpha)
            reserves, flow = apply_trade(reserves, delta, p, eps_alpha, eps_beta)
            backing = max(backing + flow, 0.0)
            coins += delta
        if coins > 0.0:
            reserves, flow = apply_trade(reserves, -coins, prices[sell], eps_alpha, eps_beta)
            backing += flow
            coins = 0.0
            if reserves == 0.0:
                return OmniscientRun(
                    depleted=True, depletion_step=sell + 1, r_min=0.0, final_backing=backing, steps=sell + 1
                )
        r_min = min(r_min, reserves)
    return OmniscientRun(
        depleted=False, depletion_step=None, r_min=r_min, final_backing=backing, steps=len(prices)
    )
