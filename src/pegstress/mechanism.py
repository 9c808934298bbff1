"""Reserve-backed issuance mechanism with a price window.

The issuer quotes both sides of the peg in USD, and apply_trade settles in
backing coins at the going price p_t:

* minting one stablecoin costs (1 + eps_alpha) / p_t backing coins,
* redeeming one pays (1 - eps_beta) / p_t backing coins while reserves last;
  a redemption the reserves cannot cover pays out the entire reserves.

Fees are price adjustments on the two legs, never separate balances, so
every backing coin moves between the trader and the reserves and the sum
(reserves + trader backing) is conserved exactly.
"""

from __future__ import annotations

import math

__all__ = ["check_schedule", "apply_trade"]


def check_schedule(reserves: float, eps_alpha: float, eps_beta: float) -> None:
    """Reject reserves that are not finite and >= 0, an eps_alpha that is not
    finite and >= 0, or an eps_beta outside [0, 1)."""
    if not (math.isfinite(reserves) and reserves >= 0.0):
        raise ValueError("reserves must be finite and >= 0")
    if not (eps_alpha >= 0.0 and math.isfinite(eps_alpha)):
        raise ValueError("eps_alpha must be >= 0")
    if not (0.0 <= eps_beta < 1.0):
        raise ValueError("eps_beta must lie in [0, 1)")


def apply_trade(reserves: float, delta: float, p_t: float, eps_alpha: float, eps_beta: float) -> tuple[float, float]:
    """Settle a trade of delta stablecoins (buy > 0, sell < 0) at price p_t.

    Returns (new reserves, backing-coin flow to the trader): negative flow on
    a mint (the trader pays delta * mint cost), positive on a redemption
    (the redeem payout, capped at the reserves).  Reserve change and flow
    cancel exactly.  Plain floats in and out; this is the one copy of the
    trade rule, which engine.run and theory.run_omniscient both call.
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

