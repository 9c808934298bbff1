"""Stress-testing toolkit for price-window stablecoin mechanisms.

The package models a mint/redeem mechanism whose exchange rates track an
external price feed inside a fee window, a value-maximising trader that
buys low and sells high against it, and the resulting drain on collateral
reserves.  Closed-form expected depletion times come from a 2x2 per-round
transition matrix; Monte Carlo simulation covers everything the closed form
abstracts away (path dependence, finite horizons, adaptive traders).

Modules:
    prices      price models (truncated normal, random walk, historical csv)
    mechanism   apply_trade, the one mint/redeem rule, with fees embedded in the rates
    speculator  stablecoin value s1 and the optimal waiting interval
    rounds      round matrix, eigen decomposition, depletion times
    theory      stability criteria and omniscient-trader oracles
    engine      seeded simulation runs (trade sizing, adaptive band), Monte
                Carlo, parameter sweeps
    cli         command-line front end (pegstress ...)

The package namespace holds the names the README's library examples use;
everything else is imported from its module.
"""

from .engine import SimConfig, SimResult, monte_carlo
from .prices import NormalSpec
from .rounds import build_round_matrix, eigen, expected_depletion_rounds, rounds_to_timesteps
from .speculator import NoTradeInterval, SpeculatorParams, waiting_interval

__version__ = "0.1.0"

__all__ = [
    "NoTradeInterval",
    "NormalSpec",
    "SimConfig",
    "SimResult",
    "SpeculatorParams",
    "build_round_matrix",
    "eigen",
    "expected_depletion_rounds",
    "monte_carlo",
    "rounds_to_timesteps",
    "waiting_interval",
]
