"""Simulation driver: one trader against one mechanism until depletion.

Prices come in blocks of 512 from the source's block generator.  A step
asks the trader for a trade, settles it on plain floats (mechanism.settle),
and the run stops when the reserves hit zero or the horizon runs out.  In
analytic mode the band (y1, y2) is fixed for the whole trial and a price
inside it changes nothing, so the loop visits only the steps outside the
band, found with one numpy pass per block.  Adaptive mode moves the band
every step and a traced run records every step, so both visit all of them
through the same loop.

Buys are budgeted in backing coins: the trader deploys (1 - lambda_buy) of
its backing, so the minted quantity is that budget divided by the mint cost.
With zero fees this is exactly the all-in rule (1 - lambda_buy) * p_t * n.

Monte Carlo trials are independent: trial seeds derive from
(master_seed, trial index), so aggregation order cannot change any result.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .mechanism import apply_trade, check_schedule, settle  # noqa: F401  (perfbench/tracing.py wraps engine.apply_trade)
from .prices import NormalSpec, PriceSeries, WalkSpec, derive_seed, price_blocks
from .speculator import NoTradeInterval, SpeculatorParams, WaitingInterval, waiting_interval

__all__ = [
    "AdaptiveSpec",
    "SimConfig",
    "Traces",
    "SimResult",
    "MonteCarloSummary",
    "SweepPoint",
    "run",
    "monte_carlo",
    "sweep",
    "SWEEP_AXES",
]

SWEEP_AXES = ("sigma2", "delta", "lambda", "sigma_step", "n0", "eps", "reserves0")


@dataclass(frozen=True)
class AdaptiveSpec:
    """Rolling-window interval parameters: [mean - c*std, mean + c*std]."""

    c: float = 3.5
    window: int = 168

    def __post_init__(self) -> None:
        if self.c < 0.0:
            raise ValueError("c must be >= 0")
        if self.window < 2:
            raise ValueError("window must be >= 2")


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs; immutable so sweeps can share it."""

    source: NormalSpec | WalkSpec | PriceSeries
    speculator: SpeculatorParams
    reserves0: float
    n0: float
    m0: float = 0.0
    eps_alpha: float = 0.0
    eps_beta: float = 0.0
    mode: str = "auto"  # auto | analytic | adaptive
    adaptive: AdaptiveSpec = AdaptiveSpec()
    max_steps: int = 100_000
    master_seed: int = 0
    record_traces: bool = False

    def __post_init__(self) -> None:
        if not (self.reserves0 > 0.0):
            raise ValueError("reserves0 must be > 0")
        if self.n0 < 0.0 or self.m0 < 0.0:
            raise ValueError("initial holdings must be >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.mode not in ("auto", "analytic", "adaptive"):
            raise ValueError("mode must be auto, analytic, or adaptive")
        check_schedule(self.reserves0, self.eps_alpha, self.eps_beta)

    def resolved_mode(self) -> str:
        """analytic for i.i.d. normal sources, adaptive for paths."""
        if self.mode != "auto":
            return self.mode
        return "analytic" if isinstance(self.source, NormalSpec) else "adaptive"


@dataclass(frozen=True)
class Traces:
    """Per-step history (price, executed trade, reserves, holdings)."""

    p: tuple[float, ...]
    delta: tuple[float, ...]
    reserves: tuple[float, ...]
    n: tuple[float, ...]
    m: tuple[float, ...]


@dataclass(frozen=True)
class SimResult:
    depleted: bool
    depletion_step: int | None
    rounds: int
    r_min: float
    final_m: float
    final_n: float
    steps: int
    clamp_count: int
    seed: int
    traces: Traces | None = None


@dataclass(frozen=True)
class MonteCarloSummary:
    trials: int
    depleted_count: int
    fraction_depleted: float
    mean_depletion_step: float | None
    std_depletion_step: float | None
    mean_depletion_rounds: float | None
    r_min_mean: float
    r_min_min: float
    r_min_max: float
    results: tuple[SimResult, ...] | None = None


@dataclass(frozen=True)
class SweepPoint:
    axis: str
    value: float
    summary: MonteCarloSummary


def _analytic_band(config: SimConfig) -> tuple[float, float]:
    """Trade triggers (y1, y2) for analytic mode.

    When no finite trigger exists (zero variance, or a discount so deep the
    trader would never act on one side) the trader is inert: the band is the
    whole real line and the simulation simply plays prices forward.
    """
    try:
        wi = waiting_interval(config.source, config.speculator)
    except NoTradeInterval:
        return -math.inf, math.inf
    return wi.y1, wi.y2


def run(
    config: SimConfig,
    seed: int | None = None,
    interval: WaitingInterval | tuple[float, float] | None = None,
) -> SimResult:
    """Run one simulation.

    seed defaults to config.master_seed.  For analytic mode the waiting
    interval is computed from the source distribution unless one is passed in
    (monte_carlo passes it so the optimisation runs once, not per trial); a
    (y1, y2) tuple is accepted in place of a full WaitingInterval.
    """
    mode = config.resolved_mode()
    if mode == "analytic":
        if not isinstance(config.source, NormalSpec):
            raise ValueError("analytic mode requires a distribution source")
        if interval is None:
            y1, y2 = _analytic_band(config)
        elif isinstance(interval, WaitingInterval):
            y1, y2 = interval.y1, interval.y2
        else:
            y1, y2 = interval
    else:
        y1, y2 = -math.inf, math.inf  # no scale estimate yet: wait

    seed = config.master_seed if seed is None else seed
    source = config.source
    eps_alpha, eps_beta = config.eps_alpha, config.eps_beta
    spec = config.speculator
    keep_buy = 1.0 - spec.lambda_buy
    keep_sell = 1.0 - spec.lambda_sell
    one_plus_ea = 1.0 + eps_alpha

    reserves = r_min = config.reserves0
    m, n = config.m0, config.n0
    rounds = 0
    last_dir = -1  # so the first buy opens round 1
    adaptive = mode == "adaptive"
    if adaptive:
        win = deque()
        win_cap = config.adaptive.window
        win_sum = 0.0
        win_sumsq = 0.0
        c = config.adaptive.c

    tr_p: list[float] = []
    tr_delta: list[float] = []
    tr_res: list[float] = []
    tr_n: list[float] = []
    tr_m: list[float] = []
    record = config.record_traces
    every_step = adaptive or record

    steps = 0
    clamp_count = source.clamp_count if isinstance(source, PriceSeries) else 0
    depletion_step: int | None = None
    for prices, clamped in price_blocks(source, seed):
        block = prices[: config.max_steps - steps]
        if every_step:
            values = block.tolist()
            visit = range(steps + 1, steps + 1 + len(values))
        else:
            # A price inside the fixed band leaves the state unchanged.
            idx = np.flatnonzero((block > y2) | (block < y1))
            values = block[idx].tolist()
            visit = (idx + (steps + 1)).tolist()
        for t, p in zip(visit, values):
            if adaptive:
                # Interval from the window of prices seen before this step.
                k = len(win)
                if k >= 2:
                    mean = win_sum / k
                    var = max(win_sumsq / k - mean * mean, 0.0)
                    std = math.sqrt(var)
                    y1, y2 = mean - c * std, mean + c * std
                else:
                    y1, y2 = -math.inf, math.inf
                win.append(p)
                win_sum += p
                win_sumsq += p * p
                if k + 1 > win_cap:
                    old = win.popleft()
                    win_sum -= old
                    win_sumsq -= old * old

            delta = 0.0
            if p > y2 and n > 0.0:
                delta = keep_buy * p * n / one_plus_ea
            elif p < y1 and m > 0.0:
                delta = -(keep_sell * m)

            if delta != 0.0:
                reserves, flow = settle(reserves, delta, p, eps_alpha, eps_beta)
                m += delta
                n += flow
                if m < 0.0 or n < 0.0:
                    # Settlement can overshoot the budget by an ulp; anything
                    # bigger is a logic error, not rounding.
                    if m < -1e-9 or n < -1e-9 * max(1.0, abs(flow)):
                        raise RuntimeError(f"negative holdings at step {t}: m={m}, n={n}")
                    m = max(m, 0.0)
                    n = max(n, 0.0)
                if delta < 0.0 and last_dir > 0:
                    rounds += 1
                last_dir = 1 if delta > 0.0 else -1
                if reserves < r_min:
                    r_min = reserves

            if record:
                tr_p.append(p)
                tr_delta.append(delta)
                tr_res.append(reserves)
                tr_n.append(n)
                tr_m.append(m)

            # Reserves start positive and only a redemption can empty them.
            if reserves == 0.0:
                depletion_step = t
                break
        used = len(block) if depletion_step is None else depletion_step - steps
        if clamped is not None:
            clamp_count += int(clamped[:used].sum())
        steps += used
        if depletion_step is not None or steps == config.max_steps:
            break

    traces = None
    if record:
        traces = Traces(
            p=tuple(tr_p), delta=tuple(tr_delta), reserves=tuple(tr_res), n=tuple(tr_n), m=tuple(tr_m)
        )
    return SimResult(
        depleted=depletion_step is not None,
        depletion_step=depletion_step,
        rounds=rounds,
        r_min=r_min,
        final_m=m,
        final_n=n,
        steps=steps,
        clamp_count=clamp_count,
        seed=seed,
        traces=traces,
    )


def monte_carlo(config: SimConfig, trials: int, keep_results: bool = False) -> MonteCarloSummary:
    """Run independent trials and aggregate streams (order-independent).

    Trial seeds are derive_seed(master_seed, index); the waiting interval for
    analytic mode is computed once and shared read-only.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    interval = None
    if config.resolved_mode() == "analytic":
        if not isinstance(config.source, NormalSpec):
            raise ValueError("analytic mode requires a distribution source")
        interval = _analytic_band(config)

    depleted = 0
    sum_steps = 0.0
    sumsq_steps = 0.0
    sum_rounds = 0.0
    r_min_sum = 0.0
    r_min_min = math.inf
    r_min_max = -math.inf
    kept: list[SimResult] = []
    for idx in range(trials):
        res = run(config, seed=derive_seed(config.master_seed, idx), interval=interval)
        if res.depleted:
            depleted += 1
            sum_steps += res.depletion_step
            sumsq_steps += res.depletion_step**2
            sum_rounds += res.rounds
        r_min_sum += res.r_min
        r_min_min = min(r_min_min, res.r_min)
        r_min_max = max(r_min_max, res.r_min)
        if keep_results:
            kept.append(res)

    mean = sum_steps / depleted if depleted else None
    std = None
    if depleted >= 2:
        var = max((sumsq_steps - sum_steps**2 / depleted) / (depleted - 1), 0.0)
        std = math.sqrt(var)
    return MonteCarloSummary(
        trials=trials,
        depleted_count=depleted,
        fraction_depleted=depleted / trials,
        mean_depletion_step=mean,
        std_depletion_step=std,
        mean_depletion_rounds=(sum_rounds / depleted if depleted else None),
        r_min_mean=r_min_sum / trials,
        r_min_min=r_min_min,
        r_min_max=r_min_max,
        results=tuple(kept) if keep_results else None,
    )


def _with_axis(config: SimConfig, axis: str, value: float) -> SimConfig:
    if axis == "sigma2":
        if not isinstance(config.source, NormalSpec):
            raise ValueError("sigma2 sweep requires a normal source")
        # Fresh spec so the default support tracks the new width.
        return replace(config, source=NormalSpec(mu=config.source.mu, sigma2=value))
    if axis == "delta":
        return replace(config, speculator=replace(config.speculator, delta=value))
    if axis == "lambda":
        return replace(
            config, speculator=replace(config.speculator, lambda_buy=value, lambda_sell=value)
        )
    if axis == "sigma_step":
        if not isinstance(config.source, WalkSpec):
            raise ValueError("sigma_step sweep requires a walk source")
        return replace(config, source=replace(config.source, sigma_step=value))
    if axis == "n0":
        return replace(config, n0=value)
    if axis == "eps":
        return replace(config, eps_alpha=value, eps_beta=value)
    if axis == "reserves0":
        return replace(config, reserves0=value)
    raise ValueError(f"unknown sweep axis {axis!r} (have {', '.join(SWEEP_AXES)})")


def sweep(config: SimConfig, axis: str, values, trials: int) -> tuple[SweepPoint, ...]:
    """Monte Carlo at each axis value; the master seed is shared across
    points so neighbouring points see common random numbers."""
    points = []
    for v in values:
        summary = monte_carlo(_with_axis(config, axis, float(v)), trials)
        points.append(SweepPoint(axis=axis, value=float(v), summary=summary))
    return tuple(points)
