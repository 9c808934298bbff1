"""Simulation driver: one trader against one mechanism until depletion.

Prices come in blocks from the source's block generator, which grow from 512
to 4096 prices, all on a fixed grid of 512-price segments from the start of
the path.  A step asks the trader for a trade, settles it on plain floats
(mechanism.apply_trade), and the run stops when the reserves hit zero or the
horizon runs out.  A price inside the trader's band changes nothing, nor does one on a side that
holds nothing (above it with no backing, below it with no stablecoins).  So
an untraced run visits only the out-of-band steps, found with one numpy pass
per block, on a side that holds something: from a step on an empty side it
jumps (list.index) to the next step on the other side.  In analytic mode the
band (y1, y2) is fixed for the whole trial; in adaptive mode RollingBand
gives each step of a block its own band from the prices before it, in 2-D
numpy passes over the block's segments (one pass up to a window of 1024).
A traced run, which records every step, visits all of them.

Buys are budgeted in backing coins: the trader deploys (1 - lambda_buy) of
its backing, so the minted quantity is that budget divided by the mint cost.
With zero fees this is exactly the all-in rule (1 - lambda_buy) * p_t * n.

Monte Carlo trials are independent: trial seeds derive from
(master_seed, trial index), so aggregation order cannot change any result.
Every trial draws from one generator set to its seed's PCG64 state
(prices.seeded_generators): what default_rng(seed), which a lone run builds,
would draw, without a generator per trial.  A Monte Carlo job (one point,
or one per sweep value) cuts each point's trials into chunks of SEED_CHUNK,
each seeded in one bulk pass, and deals all its chunks to this process and
to one forked child per other CPU in its affinity mask (parallel.run_chunks).
It folds each point's trials in trial order, so its sums are the same floats
however many processes ran.  It keeps no per-trial record; a caller that
wants the records (the CLI's --out) passes a sink, which runs in the calling
process and sees each SimResult once, in order, as its chunk comes in.

numpy is imported inside the functions that scan price blocks (RollingBand,
_running_sums, run), not at module level: importing this module, and with
it the package, needs only the standard library, so the closed form
(cli analyze) never loads numpy.  A run loads it with its first block.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from itertools import islice
from typing import TYPE_CHECKING

from .mechanism import apply_trade, check_schedule
from .prices import (
    BLOCK, NormalSpec, PriceSeries, WalkSpec, derive_seed, price_blocks, seeded_generators,
)
from .speculator import NoTradeInterval, SpeculatorParams, waiting_interval

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AdaptiveSpec",
    "RollingBand",
    "SimConfig",
    "Traces",
    "SimResult",
    "MonteCarloSummary",
    "run",
    "monte_carlo",
    "sweep",
    "sweep_configs",
    "SWEEP_AXES",
    "MODES",
]

SWEEP_AXES = ("sigma2", "delta", "lambda", "sigma_step", "n0", "eps", "reserves0")
MODES = ("auto", "analytic", "adaptive")
SEED_CHUNK = 512  # trials per chunk of a Monte Carlo run, seeded in one pcg64_states call


def _check_count(name: str, value, least: int) -> None:
    """A count is an integer (a type operator.index takes, not bool) >= least."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class AdaptiveSpec:
    """Rolling-window interval parameters: [mean - c*std, mean + c*std]."""

    c: float = 3.5
    window: int = 168

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError("c must be finite and >= 0")
        _check_count("window", self.window, 2)


# Floats in one pass's (segments, window + BLOCK) arrays.  A pass takes as
# many segments as fit (all eight of a MAX_BLOCK block up to a window of
# 1024), so its temporaries stay under 96 KiB.  Larger ones went back to the
# system and were faulted in afresh on each call (glibc's malloc maps or
# trims blocks past 128 KiB), which made the band at window 5000 about 1.5x
# slower than the one-pass-per-512-prices band it replaces.
_PASS_FLOATS = 12288


class RollingBand:
    """Adaptive band mean -/+ c*std over the trailing window of prices.

    band(block) gives the band of each step of a block from the up to
    ``window`` prices seen before that step (population std; fewer than two
    prices give (-inf, +inf), so the trader waits).  Blocks come in path
    order and may have any length.  A block is cut into segments of BLOCK
    prices from its first price, and its segments are computed a row each in
    2-D numpy passes.  Each segment's sums are of the prices less a pivot
    (the segment's first price), started afresh from the window, so rounding
    scales with the segment's spread, not with the price level or the length
    of the path; a window of one price repeated (a walk on its floor) gets
    [p, p] exactly.  The price generators' blocks are whole segments, so the
    bands are the same floats however a path is split into blocks.
    """

    def __init__(self, spec: AdaptiveSpec) -> None:
        import numpy as np
        self.c = spec.c
        self.window = spec.window
        self.recent = np.zeros(spec.window)  # last `window` prices; zeros before the path
        self.seen = 0

    def band(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        step = max(1, _PASS_FLOATS // (self.window + BLOCK)) * BLOCK
        if len(block) <= step:
            return self._segments(block)
        lo, hi = zip(*(self._segments(block[s : s + step]) for s in range(0, len(block), step)))
        return np.concatenate(lo), np.concatenate(hi)

    def _segments(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        size, w = len(block), self.window
        rows = -(-size // BLOCK) or 1  # an empty block still gets its (empty) band
        # The window before the block, the block, and zeros to fill the last
        # segment (its steps past the block are computed and dropped).
        path = np.concatenate((self.recent, block, np.zeros(rows * BLOCK - size)))
        pivot = path[w::BLOCK, None]
        # Row r: the window before segment r, then the segment, less its pivot.
        windows = np.ndarray((rows, w + BLOCK), buffer=path, strides=(BLOCK * path.itemsize, path.itemsize))
        dev = windows - pivot
        empty = w - min(self.seen, w)  # path[:empty] holds no price yet
        for r in range(min(rows, -(-empty // BLOCK))):
            dev[r, : empty - r * BLOCK] = 0.0
        total, sq = (_running_sums(x, w) for x in (dev, dev * dev))
        # Steps with fewer than two prices before them get no band.
        wait = max(0, 2 - self.seen)
        # k, the prices before each step, is the window once the path fills it.
        k = w
        if self.seen < w:
            k = np.minimum(np.arange(self.seen, self.seen + rows * BLOCK), w).reshape(rows, BLOCK)
            k[0, :wait] = 1  # keeps the division defined
        mean = total[:, :-1:2] / k
        std = np.sqrt(np.maximum(sq[:, :-1:2] / k - mean * mean, 0.0))
        mean += pivot
        # A window of one price repeated gets [p, p] exactly, which its
        # rounded sums can miss.  repeats[i] counts the prices right before
        # path[i] equal to it; a step's window of k prices is one price when
        # the last of them has k - 1.  That pass takes ~30 us per 4096 prices,
        # the test for a repeat ~3, so it runs only where a price repeats:
        # always on, it slowed the history benchmark's simulate and sweep
        # requests, whose walks never repeat a price, by 9%.
        new = np.concatenate(([True], path[1:] != path[:-1]))  # path[i] differs from the price before
        if not new[w - min(self.seen, w) + 1 : w + size].all():
            idx = np.arange(len(path))
            repeats = idx - np.maximum.accumulate(np.where(new, idx, 0))
            last = slice(w - 1, w - 1 + rows * BLOCK)  # the price before each step
            flat = repeats[last].reshape(rows, BLOCK) >= k - 1
            mean[flat] = path[last].reshape(rows, BLOCK)[flat]
            std[flat] = 0.0
        std *= self.c
        lo = (mean - std).ravel()[:size]
        hi = (mean + std).ravel()[:size]
        lo[:wait] = -math.inf
        hi[:wait] = math.inf
        self.recent = path[size : size + w]
        self.seen += size
        return lo, hi


def _running_sums(dev: np.ndarray, window: int) -> np.ndarray:
    """Per row of dev (a window, then a segment): the window's sum, + new[0],
    - old[0], + new[1], ...: every partial sum, added left to right
    (np.add.accumulate), so entry 2j is the sum before step j.  old, the
    value leaving the window, is 0.0 while it fills, and subtracting a 0.0
    leaves a sum unchanged, exactly."""
    import numpy as np
    inc = np.empty((len(dev), 2 * BLOCK + 1))
    inc[:, 0] = dev[:, :window].sum(axis=1)
    inc[:, 1::2] = dev[:, window:]
    np.negative(dev[:, :BLOCK], out=inc[:, 2::2])
    return np.add.accumulate(inc, axis=1, out=inc)


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs; immutable so sweeps can share it.  Its
    defaults are the CLI's for a config key left out."""

    source: NormalSpec | WalkSpec | PriceSeries
    speculator: SpeculatorParams
    reserves0: float
    n0: float = 1.0
    m0: float = 0.0
    eps_alpha: float = 0.0
    eps_beta: float = 0.0
    mode: str = "auto"  # auto | analytic | adaptive
    adaptive: AdaptiveSpec = AdaptiveSpec()
    max_steps: int = 100_000
    master_seed: int = 0
    record_traces: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.reserves0) and self.reserves0 > 0.0):
            raise ValueError("reserves0 must be finite and > 0")
        for name, held in (("m0", self.m0), ("n0", self.n0)):
            if not (math.isfinite(held) and held >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0")
        _check_count("max_steps", self.max_steps, 1)
        if self.mode not in MODES:
            raise ValueError("mode must be auto, analytic, or adaptive")
        if self.mode == "analytic" and isinstance(self.source, (WalkSpec, PriceSeries)):
            raise ValueError("analytic mode requires a distribution source")
        if isinstance(self.source, NormalSpec) and not self.source.support_lo > 0.0:
            raise ValueError("support_lo must be > 0 in source(normal): prices must stay positive")
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
    """Aggregates over trials; simulate and sweep report the fields in this order."""

    trials: int
    depleted_count: int
    fraction_depleted: float
    mean_depletion_steps: float | None
    std_depletion_steps: float | None
    mean_depletion_rounds: float | None
    r_min_mean: float
    r_min_min: float
    r_min_max: float


def _analytic_band(config: SimConfig) -> tuple[float, float]:
    """Trade triggers (y1, y2) for analytic mode, whose source SimConfig keeps normal.

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
    interval: tuple[float, float] | None = None,
    rng: np.random.Generator | None = None,
) -> SimResult:
    """Run one simulation.

    seed defaults to config.master_seed.  A band (y1, y2) passed in holds for
    every step, in any mode (monte_carlo passes analytic mode's, so the
    optimisation runs once, not per trial).  Without one, analytic mode
    computes it from the source distribution and adaptive mode rolls it.
    rng, if given, is a generator already in seed's PCG64 state (monte_carlo
    reseeds one for each trial); without it the run draws from
    default_rng(seed), except over a series, which draws nothing.
    Untraced, it visits the out-of-band steps on a side that holds something
    (above y2 while n > 0, below y1 while m > 0); traced, every step.
    """
    import numpy as np
    adaptive = interval is None and config.resolved_mode() == "adaptive"
    if adaptive:
        window = RollingBand(config.adaptive)
    else:
        lo, hi = _analytic_band(config) if interval is None else interval

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

    trace: list[tuple[float, ...]] = []  # (p, delta, reserves, n, m) per step
    record = config.record_traces

    steps = 0
    # The clamps among the prices this run used: a series clamps none as it
    # plays, whatever count it was built with.
    clamp_count = 0
    depletion_step: int | None = None
    # A price between the edges of an inverted band (y1 > y2) buys if it can,
    # else sells, so such a run never jumps.  RollingBand's never is (c >= 0).
    inverted = not adaptive and lo > hi
    jump = not (record or inverted)
    if rng is None and not isinstance(source, PriceSeries):  # a series draws nothing
        rng = np.random.default_rng(seed)
    for prices, clamped in price_blocks(source, rng):
        block = prices[: config.max_steps - steps]
        if adaptive:
            lo, hi = window.band(block)
        above = block > hi
        outside = above | (block < lo)
        # sides: True above y2, False below y1, None inside the band, where
        # the state cannot change (only traced runs visit those steps).
        idx = np.arange(len(block)) if record else outside.nonzero()[0]
        sides = (np.where(outside, above, None) if record else above[idx]).tolist()
        visit = block[idx].tolist()
        k = 0
        count = len(sides)
        while k < count:
            s = sides[k]
            p = visit[k]
            delta = 0.0
            if s and n > 0.0:
                delta = keep_buy * p * n / one_plus_ea
            elif m > 0.0 and (s is False or inverted and p < lo):
                delta = -(keep_sell * m)
            elif jump:
                # This side holds nothing until a trade on the other side:
                # jump to the next step on that side.
                try:
                    k = sides.index(not s, k)
                except ValueError:
                    break
                continue

            if delta != 0.0:
                reserves, flow = apply_trade(reserves, delta, p, eps_alpha, eps_beta)
                m += delta
                n += flow
                if m < 0.0 or n < 0.0:
                    # Settlement can overshoot the budget by an ulp; anything
                    # bigger is a logic error, not rounding.
                    if m < -1e-9 or n < -1e-9 * max(1.0, abs(flow)):
                        raise RuntimeError(f"negative holdings at step {steps + 1 + idx[k]}: m={m}, n={n}")
                    m = max(m, 0.0)
                    n = max(n, 0.0)
                if delta < 0.0 and last_dir > 0:
                    rounds += 1
                last_dir = 1 if delta > 0.0 else -1
                if reserves < r_min:
                    r_min = reserves

            if record:
                trace.append((p, delta, reserves, n, m))

            # Reserves start positive and only a redemption can empty them.
            if reserves == 0.0:
                depletion_step = steps + 1 + int(idx[k])
                break
            k += 1
        used = len(block) if depletion_step is None else depletion_step - steps
        if clamped is not None:
            clamp_count += int(clamped[:used].sum())
        steps += used
        if depletion_step is not None or steps == config.max_steps:
            break

    traces = Traces(*map(tuple, zip(*trace))) if record else None
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


def _trials(config: SimConfig, interval: tuple[float, float] | None, start: int, stop: int) -> Iterator[SimResult]:
    """Trials start..stop-1 of config, in order.  A series draws nothing, so
    its trials run without a generator."""
    seeds = [derive_seed(config.master_seed, idx) for idx in range(start, stop)]
    if isinstance(config.source, PriceSeries):
        for seed in seeds:
            yield run(config, seed=seed, interval=interval)
    else:
        for seed, rng in seeded_generators(seeds):
            yield run(config, seed=seed, interval=interval, rng=rng)


def _monte_carlo(points: list[SimConfig], trials: int, sink: Callable | None) -> tuple[MonteCarloSummary, ...]:
    """A summary per point of trials trials at each of points, as one job of
    (point, start, stop) chunks, each point's band computed once; sink, if
    given, sees (point, index, result) in point order, then trial order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    bands = [_analytic_band(point) if point.resolved_mode() == "analytic" else None for point in points]
    chunks = [(p, start, min(start + SEED_CHUNK, trials)) for p in range(len(points))
              for start in range(0, trials, SEED_CHUNK)]
    from .parallel import run_chunks  # here, so importing the package compiles none of it
    results = run_chunks(lambda p, start, stop: _trials(points[p], bands[p], start, stop), chunks)
    try:
        return tuple(_summary(p, trials, islice(results, trials), sink) for p in range(len(points)))
    finally:
        results.close()


def _summary(point: int, trials: int, results: Iterator[SimResult], sink: Callable | None) -> MonteCarloSummary:
    """Point point's summary of results, in trial order, each passed to sink(point, index, result)."""
    depleted, sum_steps, sumsq_steps, sum_rounds, r_min_sum = 0, 0.0, 0.0, 0.0, 0.0
    r_min_min, r_min_max = math.inf, -math.inf
    for idx, res in enumerate(results):
        if res.depleted:
            depleted += 1
            sum_steps += res.depletion_step
            sumsq_steps += res.depletion_step**2
            sum_rounds += res.rounds
        r_min_sum += res.r_min
        r_min_min = min(r_min_min, res.r_min)
        r_min_max = max(r_min_max, res.r_min)
        if sink is not None:
            sink(point, idx, res)

    mean = sum_steps / depleted if depleted else None
    std = math.sqrt(max((sumsq_steps - sum_steps**2 / depleted) / (depleted - 1), 0.0)) if depleted >= 2 else None
    return MonteCarloSummary(
        trials=trials,
        depleted_count=depleted,
        fraction_depleted=depleted / trials,
        mean_depletion_steps=mean,
        std_depletion_steps=std,
        mean_depletion_rounds=(sum_rounds / depleted if depleted else None),
        r_min_mean=r_min_sum / trials,
        r_min_min=r_min_min,
        r_min_max=r_min_max,
    )


def monte_carlo(config: SimConfig, trials: int, sink: Callable | None = None) -> MonteCarloSummary:
    """Run independent trials and aggregate them: a job of one point.

    Trial seeds are derive_seed(master_seed, index).  The trials run on the
    CPUs in the process's affinity mask, in chunks of SEED_CHUNK (see the
    module docstring).  sink, if given, is called as sink(index, result) in
    this process, once per trial, in trial order; nothing else keeps the
    result.  The summary, and what the sink sees, are the same however many
    processes ran the trials.
    """
    return _monte_carlo([config], trials, sink and (lambda _, idx, res: sink(idx, res)))[0]


def _with_axis(config: SimConfig, axis: str, value: float) -> SimConfig:
    if axis == "sigma2":
        source = config.source
        if not isinstance(source, NormalSpec):
            raise ValueError("sigma2 sweep requires a normal source")
        # The default support tracks the new width; an explicit one is kept.
        if source == NormalSpec(source.mu, source.sigma2):
            return replace(config, source=NormalSpec(source.mu, value))
        return replace(config, source=replace(source, sigma2=value))
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
    raise ValueError(f"unknown sweep axis {axis!r} (allowed: {', '.join(SWEEP_AXES)})")


def sweep_configs(config: SimConfig, axis: str, values) -> list[SimConfig]:
    """config at each axis value; a value its axis rejects raises here."""
    return [_with_axis(config, axis, float(v)) for v in values]


def sweep(config: SimConfig, axis: str, values, trials: int, sink: Callable | None = None) -> tuple[MonteCarloSummary, ...]:
    """Monte Carlo at each axis value as one job, one summary per value in
    order, each monte_carlo's for that point; the master seed is shared so
    neighbouring points see common random numbers.  Every value is checked
    before the first trial runs.  sink sees (value's place, index, result)."""
    return _monte_carlo(sweep_configs(config, axis, values), trials, sink)
