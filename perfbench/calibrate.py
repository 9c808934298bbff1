"""Machine-speed calibration, for timing on a shared and drifting host.

On a shared VM the processor's speed drifts by tens of percent, over seconds
to minutes, as other tenants load the same physical cores: a fixed block of
work takes either about its quiet time or about 1.7 times that, switching
every few seconds.  A process's CPU time follows its wall time, so neither
clock removes the drift, and whole runs shift together.

So while requests run, an interval timer interrupts the process every
``PERIOD_S`` seconds and times a short fixed block of work
(``block``).  That samples the machine's speed evenly through the run, in
the middle of long requests too.  The time metrics are then reported at the
speed the block has on a quiet machine:

    scaled = measured * REFERENCE_S / mean(block times during the request)

A request too short to be sampled is scaled by the last ``RECENT`` samples
before it.  Scaling each request by its own samples, not the run by all of
them, keeps a median over a few long requests steady too: which request
happened to run in a slow spell no longer decides it.

Time spent in the sampler is taken out of every latency (``Sampler.now``).
Set-up runs in fresh processes that import numpy inside the timing, so they
are not sampled; each is scaled by ``slowdown_now()``, taken right after it.
The block is the benchmark's own code, so no change to pegstress can move it.
It imitates the two hot loops of pegstress (see ``block``).  The signal
handler runs in the main thread between bytecodes; it starts no thread or
process.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.1
RECENT = 5
# Best time of block() on an idle 2-vCPU x86_64 Xeon VM under Python 3.11.
REFERENCE_S = 0.0008
_FEED_BLOCKS = 8
_SCAN_ROUNDS = 800
_SEED = 20240601


class _Pool:
    __slots__ = ("reserves", "units")

    def __init__(self) -> None:
        self.reserves = 100.0
        self.units = 1.0

    def trade(self, price: float, units: float) -> float:
        self.reserves -= units * price * 1e-3
        self.units += units
        return self.reserves


def _power(base: float, k: float) -> float:
    return math.pow(base, k) if base >= 0.0 else -math.pow(-base, k)


def _holdings(k: float) -> float:
    try:
        return _power(1.0000001, k) * 2.0 + _power(-0.3, k) * 0.25
    except OverflowError:
        return math.inf


def block() -> float:
    """Seconds the fixed block of work takes now.

    Two halves, after the two hot loops of pegstress.  First the engine's
    i.i.d. feed and trade loop: seeded normal draws in numpy, clipped and
    turned into a list, then comparisons and method calls over them.  Then
    the closed form's round scan: nested calls evaluating a1^k c1 + a2^k c2.
    """
    import numpy as np  # here, so that importing this module leaves set-up times alone

    t0 = time.perf_counter()
    rng, pool, acc = np.random.default_rng(_SEED), _Pool(), 0.0
    for _ in range(_FEED_BLOCKS):
        prices = rng.normal(100.0, 10.0, size=512)
        np.clip(prices, 70.0, 130.0, out=prices)
        for p in prices.tolist():
            if p < 95.0:
                acc += pool.trade(p, 1.0)
            elif p > 105.0:
                acc -= pool.trade(p, -1.0)
    for k in range(1, _SCAN_ROUNDS):
        acc += _holdings(float(k))
    return time.perf_counter() - t0


def slowdown_now(blocks: int = 30) -> float:
    """How much slower than quiet the machine runs now, over blocks in a row."""
    block()  # the first call in a process pays one-time costs; leave it out
    return statistics.fmean(block() for _ in range(blocks)) / REFERENCE_S


class Sampler:
    """Times block() on every SIGALRM between start() and stop()."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(block())
        self._spent += time.perf_counter() - t0

    def now(self) -> float:
        """A clock that stands still while the sampler runs."""
        return time.perf_counter() - self._spent

    def start(self) -> None:
        block()  # the first call in a process pays one-time costs; leave it out
        self.samples.append(block())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowdown(self, first: int = 0) -> float:
        """How much slower than the quiet reference the machine ran since
        sample index first, or just before it if no sample came since."""
        return statistics.fmean(self.samples[first:] or self.samples[-RECENT:]) / REFERENCE_S
