"""Reserve-backed issuance mechanism with a price window.

The issuer quotes both sides of the peg in USD and settles in backing coins
at the going price p_t:

* minting one stablecoin costs (1 + eps_alpha) / p_t backing coins,
* redeeming one pays (1 - eps_beta) / p_t backing coins while reserves last;
  a redemption the reserves cannot cover pays out the entire reserves.

Fees are price adjustments on the two legs, never separate balances, so
every backing coin moves between the trader and the reserves and the sum
(reserves + trader backing) is conserved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["MechanismState", "check_fees", "check_schedule", "settle", "apply_trade"]


def check_schedule(reserves: float, eps_alpha: float, eps_beta: float) -> None:
    """Reject reserves that are not finite and >= 0, and fees out of range."""
    if not (math.isfinite(reserves) and reserves >= 0.0):
        raise ValueError("reserves must be finite and >= 0")
    check_fees(eps_alpha, eps_beta)


def check_fees(eps_alpha: float, eps_beta: float) -> None:
    """Reject an eps_alpha that is not finite and >= 0, or an eps_beta outside [0, 1)."""
    if not (eps_alpha >= 0.0 and math.isfinite(eps_alpha)):
        raise ValueError("eps_alpha must be >= 0")
    if not (0.0 <= eps_beta < 1.0):
        raise ValueError("eps_beta must lie in [0, 1)")


@dataclass(frozen=True)
class MechanismState:
    """Reserves (backing coins) plus the fee schedule.

    depleted_at records the timestep at which reserves first hit zero, and
    stays None while the window is intact.
    """

    reserves: float
    eps_alpha: float = 0.0
    eps_beta: float = 0.0
    depleted_at: int | None = None

    def __post_init__(self) -> None:
        check_schedule(self.reserves, self.eps_alpha, self.eps_beta)


def settle(reserves: float, delta: float, p_t: float, eps_alpha: float, eps_beta: float) -> tuple[float, float]:
    """Settle a trade of delta stablecoins (buy > 0, sell < 0) at price p_t.

    Returns (new reserves, backing-coin flow to the trader): negative flow on
    a mint (the trader pays delta * mint cost), positive on a redemption
    (the redeem payout, capped at the reserves).  Reserve change and flow
    cancel exactly.  Plain floats in and out, so a simulation can settle
    every trade without building a MechanismState.  This is the one copy of
    the trade rule; apply_trade below goes through it.
    """
    if not (p_t > 0.0):
        raise ValueError("price must be positive")
    if delta > 0.0:
        cost = delta * ((1.0 + eps_alpha) / p_t)
        reserves, flow = reserves + cost, -cost
    else:
        payout = min(-delta * (1.0 - eps_beta) / p_t, reserves)
        reserves, flow = reserves - payout, payout
    if not (0.0 <= reserves < math.inf):
        raise ValueError("reserves must be finite and >= 0")
    return reserves, flow


def apply_trade(state: MechanismState, delta: float, p_t: float, t: int = 0) -> tuple[MechanismState, float]:
    """settle() on a MechanismState; a redemption that empties the reserves
    records t as depleted_at.  delta == 0 is the identity."""
    if delta == 0.0:
        return state, 0.0
    reserves, flow = settle(state.reserves, delta, p_t, state.eps_alpha, state.eps_beta)
    depleted_at = state.depleted_at
    if delta < 0.0 and reserves == 0.0 and depleted_at is None:
        depleted_at = t
    return replace(state, reserves=reserves, depleted_at=depleted_at), flow
