"""Price models and series handling.

Three ways to produce a price path, all yielding strictly positive prices:

* i.i.d. draws from a (truncated) normal distribution,
* an additive Gaussian random walk clamped at a positive floor,
* a fixed series loaded from CSV or given literally.

The normal-distribution calculus lives here too.  Conditional means over an
interval never integrate ``x * f(x)`` numerically; they use the exact
expansion

    integral_a^b x f(x) dx = mu * integral_a^b f(x) dx - sigma^2 * (f(b) - f(a)),

which follows from f'(x) = -(x - mu) / sigma^2 * f(x).  Everything downstream
(waiting intervals, round matrices) leans on that identity, so it is kept in
one place and tested against quadrature.

Only the block generators (iid_blocks, walk_blocks, series_blocks), the
bulk seeding (pcg64_states, seeded_generators), random_walk and step_stats
use numpy, and they import it when first called.  A block generator that
draws takes a numpy Generator from its caller and never builds one from a
seed.  The specs, the normal calculus, load_csv and derive_seed need only
the standard library, as do the closed form and the theory report built on
them.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing import TextIO

    import numpy as np

__all__ = [
    "NormalSpec",
    "WalkSpec",
    "PriceSeries",
    "cdf",
    "TruncatedNormal",
    "mean_of",
    "iid_blocks",
    "walk_blocks",
    "series_blocks",
    "price_blocks",
    "random_walk",
    "load_csv",
    "step_stats",
    "derive_seed",
    "pcg64_states",
    "seeded_generators",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Conditioning events with less mass than this are treated as empty: the
# closed-form ratio below loses all significant digits well before the
# probability itself underflows.
_MIN_EVENT_PROB = 1e-13

_POSITIVE_FLOOR = 1e-6

# Prices per block drawn by the block generators; one simulation trial
# holds one block at a time.  Every generator's blocks start at BLOCK and
# double up to MAX_BLOCK, so a short run draws little (an analytic trial at
# the reference config ends after ~224 steps) and a long one pays numpy's
# per-call cost once per MAX_BLOCK prices.  Each block, but a series' last,
# is a whole number of BLOCK-price segments, so the segments lie on a fixed
# grid whatever the block sizes.
BLOCK = 512
MAX_BLOCK = 8 * BLOCK


@dataclass(frozen=True)
class NormalSpec:
    """Normal price model N(mu, sigma2) restricted to [support_lo, support_hi].

    Default support is mu +/- 6 sigma, with the lower edge floored at a small
    positive value so the model can be used as a price source.  Explicit bounds
    may place the support anywhere finite (tests exercise standard-normal
    cases); price-generating entry points reject non-positive lower bounds
    themselves.

    sigma2 == 0 denotes a point mass at mu, whose support must contain mu.
    """

    mu: float
    sigma2: float
    support_lo: float = field(default=math.nan)
    support_hi: float = field(default=math.nan)

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not math.isfinite(self.sigma2) or self.sigma2 < 0.0:
            raise ValueError("sigma2 must be finite and >= 0")
        sigma = math.sqrt(self.sigma2)
        if math.isnan(self.support_lo):
            lo = max(self.mu - 6.0 * sigma, _POSITIVE_FLOOR)
            object.__setattr__(self, "support_lo", lo)
        if math.isnan(self.support_hi):
            object.__setattr__(self, "support_hi", self.mu + 6.0 * sigma)
        for name in ("support_lo", "support_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma2 == 0.0:
            # iid_blocks clips the point's draws, which are mu, to the support.
            if not self.support_lo <= self.mu <= self.support_hi:
                raise ValueError("a point mass needs support_lo <= mu <= support_hi")
        elif not self.support_lo < self.support_hi:
            raise ValueError("support_lo must be < support_hi")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def is_point_mass(self) -> bool:
        return self.sigma2 == 0.0


@dataclass(frozen=True)
class WalkSpec:
    """Additive Gaussian random walk: p_{t+1} = max(p_t + step, floor)."""

    mu_step: float
    sigma_step: float
    p0: float
    floor: float = _POSITIVE_FLOOR

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu_step):
            raise ValueError("mu_step must be finite")
        if not math.isfinite(self.sigma_step) or self.sigma_step < 0.0:
            raise ValueError("sigma_step must be finite and >= 0")
        if not (self.p0 > 0.0 and math.isfinite(self.p0)):
            raise ValueError("p0 must be a finite positive price")
        if not (0.0 < self.floor < math.inf):
            raise ValueError("floor must be finite and positive so 1/p stays defined")


@dataclass(frozen=True)
class PriceSeries:
    """Immutable price path plus provenance (source tag, seed, clamp count)."""

    prices: tuple[float, ...]
    source: str
    seed: int | None = None
    clamp_count: int = 0

    def __post_init__(self) -> None:
        prices = self.prices
        if len(prices) == 0:
            raise ValueError("price series must contain at least one price")
        # One pass in C for the usual all-valid series; the loop only names the first bad price.
        if not (all(map(math.isfinite, prices)) and min(prices) > 0.0):
            for idx, p in enumerate(prices):
                if not (math.isfinite(p) and p > 0.0):
                    raise ValueError(f"price at index {idx} must be finite and > 0, got {p!r}")

    def __len__(self) -> int:
        return len(self.prices)


# The standard-normal CDF behind cdf and TruncatedNormal; z is the
# standardised price.
def _std_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def cdf(spec: NormalSpec, x: float) -> float:
    """Normal CDF of N(mu, sigma2) at x (no truncation renormalisation)."""
    if spec.is_point_mass:
        return 0.0 if x < spec.mu else 1.0
    return _std_cdf((x - spec.mu) / spec.sigma)


class TruncatedNormal:
    """A non-degenerate NormalSpec on its support, with its constants computed once.

    ``tail`` is the one evaluator of the truncated normal: the speculator's
    optimisations pass it a whole grid of points, the round matrix one point
    a side.  The support edges' CDF and density and the mass between them
    are what it needs at every point.  A point mass has none.
    """

    __slots__ = ("mu", "sigma2", "sigma", "lo", "hi", "cdf_lo", "cdf_hi", "mass", "pdf_lo", "pdf_hi", "_pdf_scale")

    def __init__(self, spec: NormalSpec) -> None:
        if spec.is_point_mass:
            raise ValueError("degenerate distribution: no density for a point mass (sigma2 == 0)")
        self.mu, self.sigma2, self.sigma = spec.mu, spec.sigma2, spec.sigma
        self.lo, self.hi = spec.support_lo, spec.support_hi
        self._pdf_scale = self.sigma * _SQRT2PI
        self.cdf_lo, self.cdf_hi = cdf(spec, self.lo), cdf(spec, self.hi)
        self.mass = self.cdf_hi - self.cdf_lo
        self.pdf_lo, self.pdf_hi = (math.exp(-0.5 * z * z) / self._pdf_scale
                                    for z in ((self.lo - self.mu) / self.sigma, (self.hi - self.mu) / self.sigma))

    def tail(self, xs: list[float], below: bool) -> list[tuple[float, float | ValueError]]:
        """(P, E[p | event]) at each x, in order, for the event p <= x (below) or p >= x on the support.

        Above, P is 1 - P[p <= x].  A point inside a support with no mass
        raises; an empty event's mean is the ValueError that says so, for the
        caller to raise (``mean_of``) where it needs the mean.  Means use the
        x*f expansion of the module docstring.
        """
        mu, sigma, sigma2, lo, hi, scale = self.mu, self.sigma, self.sigma2, self.lo, self.hi, self._pdf_scale
        cdf_lo, cdf_hi, mass, pdf_lo, pdf_hi = self.cdf_lo, self.cdf_hi, self.mass, self.pdf_lo, self.pdf_hi
        if mass <= 0.0 and not all(x <= lo or x >= hi for x in xs):
            raise ValueError("truncated support carries no probability mass")
        erf, exp = math.erf, math.exp
        out = []
        for x in xs:
            if x <= lo:
                x, c, prob, pdf_x = lo, cdf_lo, 0.0, pdf_lo
            elif x >= hi:
                x, c, prob, pdf_x = hi, cdf_hi, 1.0, pdf_hi
            else:
                z = (x - mu) / sigma
                c = 0.5 * (1.0 + erf(z / _SQRT2))
                prob, pdf_x = (c - cdf_lo) / mass, None
            if below:
                df, width = c - cdf_lo, x - lo
            else:
                df, width, prob = cdf_hi - c, hi - x, 1.0 - prob
            if width == 0.0:
                mean = ValueError("empty conditioning event: {p <= x} has no mass below the support" if below
                                  else "empty conditioning event: {p >= x} has no mass above the support")
            elif df <= _MIN_EVENT_PROB:
                # So thin an event has, to second order, the midpoint as its mean.
                mean = 0.5 * (lo + x if below else x + hi) if width <= 1e-6 * max(1.0, sigma) else ValueError(
                    "empty conditioning event (numerically zero probability)")
            else:
                if pdf_x is None:
                    pdf_x = exp(-0.5 * z * z) / scale
                mean = mu - sigma2 * (pdf_x - pdf_lo if below else pdf_hi - pdf_x) / df
            out.append((prob, mean))
        return out


def mean_of(mean: float | ValueError) -> float:
    """A mean from TruncatedNormal.tail, raising the error of an empty event."""
    if isinstance(mean, ValueError):
        raise mean
    return mean


def _block_sizes() -> Iterator[int]:
    """BLOCK, 2 * BLOCK, ... up to MAX_BLOCK, then MAX_BLOCK for ever."""
    size = BLOCK
    while True:
        yield size
        size = min(2 * size, MAX_BLOCK)


def iid_blocks(spec: NormalSpec, rng: np.random.Generator) -> Iterator[tuple[np.ndarray, None]]:
    """Endless i.i.d. draws from rng clipped to the truncated support, in
    blocks growing from BLOCK to MAX_BLOCK (rng's stream whatever the sizes).

    A point mass draws mu exactly (a normal of scale 0).  Yields
    (prices, None): clipping is not counted as clamping.
    """
    import numpy as np
    for size in _block_sizes():
        block = rng.normal(spec.mu, spec.sigma, size=size)
        # clip's Python wrapper costs more than the two ufuncs; draws are never NaN.
        np.maximum(block, spec.support_lo, out=block)
        np.minimum(block, spec.support_hi, out=block)
        yield block, None


def walk_blocks(spec: WalkSpec, rng: np.random.Generator) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Endless clamped walk: p0 alone, then blocks growing from BLOCK to MAX_BLOCK.

    Yields (prices, clamped), where clamped flags the prices the floor
    caught.  Prices are the same floats as adding the steps one by one, and
    the steps are rng's stream whatever the block sizes.
    """
    import numpy as np
    p = float(spec.p0)
    yield np.array([p]), np.zeros(1, dtype=bool)
    for size in _block_sizes():
        steps = rng.normal(spec.mu_step, spec.sigma_step, size=size)
        # accumulate adds left to right: each price is previous + step.
        prices = np.add.accumulate(np.concatenate(([p], steps)))[1:]
        clamped = prices < spec.floor
        if clamped.any():
            # A clamp restarts the walk at the floor; go step by step from it.
            i = int(clamped.argmax())
            q = float(prices[i - 1]) if i else p
            tail: list[float] = []
            flags: list[bool] = []
            for step in steps[i:].tolist():
                q += step
                flags.append(q < spec.floor)
                if flags[-1]:
                    q = spec.floor
                tail.append(q)
            prices[i:] = tail
            clamped[i:] = flags
        p = float(prices[-1])
        yield prices, clamped


def series_blocks(series: PriceSeries) -> Iterator[tuple[np.ndarray, None]]:
    """A fixed series in blocks growing from BLOCK to MAX_BLOCK; exhaustion ends the path."""
    import numpy as np
    prices = series.prices
    start = 0
    for size in _block_sizes():
        if start >= len(prices):
            return
        yield np.array(prices[start : start + size]), None
        start += size


def price_blocks(
    source: NormalSpec | WalkSpec | PriceSeries, rng: np.random.Generator | None
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """The block generator of the source's price model; a series draws nothing, and takes rng None."""
    if isinstance(source, NormalSpec):
        return iid_blocks(source, rng)
    if isinstance(source, WalkSpec):
        return walk_blocks(source, rng)
    if isinstance(source, PriceSeries):
        return series_blocks(source)
    raise TypeError(f"unsupported price source: {type(source).__name__}")


def random_walk(spec: WalkSpec, n: int, seed: int) -> PriceSeries:
    """Generate n prices of the clamped walk, drawn from default_rng(seed);
    clamp events are counted."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    import numpy as np
    prices: list[float] = []
    clamps = 0
    for block, clamped in walk_blocks(spec, np.random.default_rng(seed)):
        take = n - len(prices)
        prices.extend(block[:take].tolist())
        clamps += int(clamped[:take].sum())
        if len(prices) == n:
            break
    return PriceSeries(prices=tuple(prices), source="walk", seed=seed, clamp_count=clamps)


def _split_prices(fh: TextIO, col: int) -> list[float]:
    """Field col of each non-blank row left in fh, as floats.

    The lines come in ~64 KiB chunks.  In a chunk with no quote, no NUL, no
    carriage return outside a CRLF and no line longer than the csv field
    limit, csv.reader's row is the line split at commas, less its line end
    (which float() strips), and the blank lines it skips are those that
    hold a line end alone.  The first chunk that fails a guard, and the rest
    of the file, go through csv.reader: every chunk before it ended at a
    line end outside any quote, where csv.reader starts a row.  A short row
    raises IndexError, a bad price ValueError, a line csv.reader cannot
    parse csv.Error.
    """
    limit = csv.field_size_limit()
    prices: list[float] = []
    while lines := fh.readlines(65536):
        text = "".join(lines)
        if ('"' in text or "\0" in text or text.count("\r") != text.count("\r\n")
                or (len(text) > limit and max(map(len, lines)) > limit)):
            prices += [float(row[col]) for row in filter(None, csv.reader(chain(lines, fh)))]
            break
        prices += map(float, [line.split(",")[col] for line in lines if line != "\n" and line != "\r\n"])
    return prices


def load_csv(path: str, timestamp_column: str = "timestamp", price_column: str = "price") -> PriceSeries:
    """Load a price series from a CSV file with a header row.

    The file is UTF-8, and a byte-order mark before the header is dropped.
    Rows are kept in file order and blank lines are skipped; timestamps are
    not parsed, only required to be a column.  A column name given twice
    reads its last column.  A missing, non-numeric or non-positive price is
    rejected with its row number (1-based, the header is row 1, blank lines
    are not counted), a file the csv module cannot parse with its line, and
    a file that is not UTF-8 with its path.

    csv.reader reads the header and _split_prices the body, once.  Only a
    file that read fails on is read again, from the start, to name the first
    bad row or line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, None)
            if header is None:
                raise ValueError(f"{path}: empty file (missing header row)")
            for name in (timestamp_column, price_column):
                if name not in header:
                    raise ValueError(f"{path}: missing column {name!r} (header has {header})")
            col = max(idx for idx, name in enumerate(header) if name == price_column)
            try:
                return PriceSeries(prices=tuple(_split_prices(fh, col)), source="csv")
            except (IndexError, ValueError, csv.Error):
                pass
            # Read the file again, counting lines from 1, to name the first bad row.
            fh.seek(0)
            rows = csv.reader(fh)
            next(rows)
            for row_no, row in enumerate(filter(None, rows), start=2):
                raw = row[col] if col < len(row) else ""
                if raw.strip() == "":
                    raise ValueError(f"{path}: row {row_no}: missing price value")
                try:
                    p = float(raw)
                except ValueError:
                    raise ValueError(f"{path}: row {row_no}: non-numeric price {raw!r}") from None
                if not (math.isfinite(p) and p > 0.0):
                    raise ValueError(f"{path}: row {row_no}: price must be finite and > 0, got {raw!r}")
        except csv.Error as exc:
            raise ValueError(f"{path}: line {rows.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 ({exc.reason}: {exc.object[exc.start:exc.end].hex(' ')})") from None
    raise ValueError(f"{path}: no data rows")


def step_stats(series: PriceSeries) -> WalkSpec:
    """Fit a WalkSpec to a series: mean/population-std of first differences."""
    if len(series) < 2:
        raise ValueError("need at least 2 prices to compute step statistics")
    import numpy as np
    diffs = np.diff(np.asarray(series.prices))
    return WalkSpec(
        mu_step=float(diffs.mean()),
        sigma_step=float(diffs.std()),  # population std
        p0=series.prices[0],
    )


def derive_seed(master_seed: int, index: int) -> int:
    """Derive a per-trial seed from (master_seed, trial index).

    SplitMix64-style finalising mix: trial streams are decorrelated, stable
    across runs and platforms, and independent of execution order.
    """
    mask = (1 << 64) - 1
    z = (master_seed * 0x9E3779B97F4A7C15 + index + 1) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


# numpy's SeedSequence hash works in 32-bit words; PCG64 steps a 128-bit LCG.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def pcg64_states(seeds: list[int]) -> list[dict]:
    """The (state, inc) pair np.random.PCG64(seed) starts in, per seed, as
    PCG64's ``state["state"]`` dict.

    A batch of seeds in [0, 2**64) (derive_seed's range) runs numpy's
    SeedSequence hash as uint32 array arithmetic: ~150 numpy calls whatever
    its size, ~0.1 ms for one seed and ~2 us a seed at 512.  A batch with a
    seed outside that range takes numpy's states, or its error."""
    import numpy as np
    if not all(type(s) is int and 0 <= s <= 2**64 - 1 for s in seeds):
        return [np.random.PCG64(s).state["state"] for s in seeds]
    seeds = np.array(seeds, dtype=np.uint64)
    const = 0x43B0D7E5

    def hash_step(value, mult):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    # The pool: a seed's two 32-bit words padded with zeros, hashed, then mixed.
    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = ((seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero)
    pool = [hash_step(w, 0x931E8875) for w in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value = 0xCA01F9DD * pool[dst] - 0x4973F715 * hash_step(pool[src], 0x931E8875)
                pool[dst] = value ^ value >> 16
    # generate_state(4, uint64): eight 32-bit words, low word first.
    const = 0x8B51F9DD
    out = [hash_step(pool[k % 4], 0x58F38DED).astype(np.uint64) for k in range(8)]
    words = ((out[k] | out[k + 1] << 32).tolist() for k in range(0, 8, 2))
    # PCG64's seeding: inc from the last two words, then two LCG steps from 0.
    pairs = []
    for a, b, c, d in zip(*words):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        pairs.append({"state": ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128, "inc": inc})
    return pairs


def seeded_generators(seeds: list[int]) -> Iterator[tuple[int, np.random.Generator]]:
    """(seed, generator) per seed: one Generator set to each seed's state in
    turn.  The states come from one pcg64_states call, so a caller passes a
    chunk of seeds (the engine's is at most 512), not a whole run's."""
    import numpy as np
    rng = np.random.Generator(np.random.PCG64())
    for seed, pair in zip(seeds, pcg64_states(seeds)):
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": pair, "has_uint32": 0, "uinteger": 0}
        yield seed, rng

