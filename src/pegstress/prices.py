"""Price models and series handling.

Three price models, all yielding strictly positive prices.  Each is one
object that draws its own path in blocks, ``blocks(rng)``:

* NormalSpec: i.i.d. draws from a normal distribution truncated to its support,
* WalkSpec: an additive Gaussian random walk clamped at a positive floor,
* PriceSeries: a fixed series loaded from CSV or given literally.

NormalSpec also evaluates its truncated law for the closed form
(``tail``), so the law the engine draws and the law the closed form
evaluates are one object.  Conditional means over an interval never
integrate ``x * f(x)`` numerically; they use the exact expansion

    integral_a^b x f(x) dx = mu * integral_a^b f(x) dx - sigma^2 * (f(b) - f(a)),

which follows from f'(x) = -(x - mu) / sigma^2 * f(x).  Everything downstream
(waiting intervals, round matrices) leans on that identity, so it is kept in
one place and tested against quadrature.  Other tail expectations, such as
the first passage's moments of ln p, have no such expansion:
renewal.tail_expect integrates them by Gauss-Legendre quadrature.

Only the models' blocks, the bulk seeding (pcg64_states, seeded_generators),
random_walk and step_stats use numpy, and they import it when first called.
A model that draws takes a numpy Generator from its caller and never builds
one from a seed.  The specs, the normal calculus, load_csv and derive_seed
need only the standard library, as do the closed form and the theory report
built on them.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing import TextIO

    import numpy as np

__all__ = [
    "NormalSpec",
    "WalkSpec",
    "PriceSeries",
    "mean_of",
    "random_walk",
    "load_csv",
    "step_stats",
    "derive_seed",
    "pcg64_states",
    "seeded_generators",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Conditioning events with less mass than this are treated as empty, unless
# they are narrow (below): the closed-form ratio loses all significant
# digits well before the probability itself underflows.
_MIN_EVENT_PROB = 1e-13
# An event with less mass than this, at a support edge between 0 and mu, is
# thin: 1 + erf(z) has lost digits of its mass, and the x*f expansion
# subtracts nearly mu from mu, down to a mean ~1e8 times smaller than mu
# near a support floored close to 0.  Such an event's discount
# (1 - delta)^(1/P) underflows to 0 for delta >= ~1e-5, so only a more
# patient trader reads its mean.  At an edge beyond mu the expansion adds
# to mu and does not cancel.
_THIN_EVENT = 1e-8
# A thin event is narrow where the log density rises by at most this much
# across it from its support edge; its mean is then the density's expansion
# at that edge, within ~2e-9 of exact, as is the x*f expansion past it.
_NARROW = 1e-2
# NormalSpec.blocks refuses a support with less of the normal's mass than
# this: it would cost over 1/_MIN_DRAW_MASS draws a price.
_MIN_DRAW_MASS = 1e-3

_POSITIVE_FLOOR = 1e-6

# Prices per block drawn by the models' blocks; one simulation trial holds
# one block at a time.  Every model's blocks start at BLOCK and double up to
# MAX_BLOCK, so a short run draws little (an analytic trial at the reference
# config ends after ~224 steps) and a long one pays numpy's per-call cost
# once per MAX_BLOCK prices.  Each block, but a series' last, is a whole
# number of BLOCK-price segments, so the segments lie on a fixed grid
# whatever the block sizes.
BLOCK = 512
MAX_BLOCK = 8 * BLOCK


def _block_sizes() -> Iterator[int]:
    """BLOCK, 2 * BLOCK, ... up to MAX_BLOCK, then MAX_BLOCK for ever."""
    size = BLOCK
    while True:
        yield size
        size = min(2 * size, MAX_BLOCK)


@dataclass(frozen=True)
class NormalSpec:
    """Normal price model N(mu, sigma2) truncated to [support_lo, support_hi].

    Default support is mu +/- 6 sigma, with the lower edge floored at a small
    positive value so the model can be used as a price source.  Explicit bounds
    may place the support anywhere finite (tests exercise standard-normal
    cases); price-generating entry points reject non-positive lower bounds
    themselves.

    sigma2 == 0 denotes a point mass at mu, whose support must contain mu.

    The truncated law's constants are computed once per spec, on first use,
    and are not fields: ==, hash and repr see the four fields alone, and
    dataclasses.replace builds a spec that computes its own.
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
        sigma = self.sigma
        if math.isnan(self.support_lo):
            lo = max(self.mu - 6.0 * sigma, _POSITIVE_FLOOR)
            object.__setattr__(self, "support_lo", lo)
        if math.isnan(self.support_hi):
            object.__setattr__(self, "support_hi", self.mu + 6.0 * sigma)
        for name in ("support_lo", "support_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma2 == 0.0:
            # blocks draws mu, a normal of scale 0, which must be in the support.
            if not self.support_lo <= self.mu <= self.support_hi:
                raise ValueError("a point mass needs support_lo <= mu <= support_hi")
        elif not self.support_lo < self.support_hi:
            raise ValueError("support_lo must be < support_hi")

    @cached_property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def is_point_mass(self) -> bool:
        return self.sigma2 == 0.0

    @cached_property
    def _law(self) -> tuple[float, float, float, float, float, float, float, float]:
        """The truncated law's constants: (cdf_lo, cdf_hi, mass, pdf_lo,
        pdf_hi, pdf_scale, tail_lo, tail_hi).

        cdf and pdf are the untruncated normal's at the support edges, mass
        cdf_hi - cdf_lo, pdf_scale sigma * sqrt(2 pi), and tail the normal's
        mass beyond an edge on its side of mu, from erfc, which keeps the
        digits that 1 + erf(z) loses there.  A point mass has none.
        """
        if self.is_point_mass:
            raise ValueError("degenerate distribution: no density for a point mass (sigma2 == 0)")
        scale = self.sigma * _SQRT2PI
        z_lo, z_hi = ((edge - self.mu) / self.sigma for edge in (self.support_lo, self.support_hi))
        cdf_lo, cdf_hi = (0.5 * (1.0 + math.erf(z / _SQRT2)) for z in (z_lo, z_hi))
        pdf_lo, pdf_hi = (math.exp(-0.5 * z * z) / scale for z in (z_lo, z_hi))
        tail_lo, tail_hi = (0.5 * math.erfc(abs(z) / _SQRT2) for z in (z_lo, z_hi))
        return cdf_lo, cdf_hi, cdf_hi - cdf_lo, pdf_lo, pdf_hi, scale, tail_lo, tail_hi

    @property
    def mass(self) -> float:
        """The untruncated normal's probability of the support."""
        return self._law[2]

    def tail(self, xs: list[float], below: bool) -> list[tuple[float, float | ValueError]]:
        """(P, E[p | event]) at each x, in order, for the event p <= x (below) or p >= x on the support.

        The one evaluator of the truncated law: the speculator's
        optimisations pass it a whole grid of points, the round matrix one
        point a side.  Above, P is 1 - P[p <= x].  A point mass raises, as
        does a point inside a support with no mass; an empty event's mean is
        the ValueError that says so, for the caller to raise (``mean_of``)
        where it needs the mean.  Means use the x*f expansion of the module
        docstring.  A thin event (mass below _THIN_EVENT, at an edge between
        0 and mu, where that expansion cancels) takes its mass from erfc
        where it lies on one side of mu, and P is that mass over the
        support's; where it is narrow, its mean is the density's expansion
        at its support edge, edge +/- w (1/2 + (s - c) / 12), w its width,
        s the log density's rise across it from the edge and c
        (w / sigma)^2 / 2.  Another event of under _MIN_EVENT_PROB is
        empty, unless it is under 1e-6 sigma wide: its mean is then its
        midpoint.
        """
        cdf_lo, cdf_hi, mass, pdf_lo, pdf_hi, scale, tail_lo, tail_hi = self._law
        mu, sigma, sigma2, lo, hi = self.mu, self.sigma, self.sigma2, self.support_lo, self.support_hi
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
            if df < _THIN_EVENT:
                edge = lo if below else hi
                if width == 0.0:
                    out.append((prob, ValueError("empty conditioning event: {p <= x} has no mass below the support"
                                                 if below else
                                                 "empty conditioning event: {p >= x} has no mass above the support")))
                    continue
                if 0.0 < edge < mu or mu < edge < 0.0:
                    if pdf_x is None and (x <= mu) == (edge <= mu):
                        df = abs(0.5 * math.erfc(abs(z) / _SQRT2) - (tail_lo if below else tail_hi))
                        prob = df / mass
                    s = (mu - lo if below else hi - mu) * width / sigma2
                    if abs(s) <= _NARROW:
                        offset = width * (0.5 + (s - 0.5 * (width / sigma) ** 2) / 12.0)
                        out.append((prob, edge + offset if below else edge - offset))
                        continue
                elif df <= _MIN_EVENT_PROB and width <= 1e-6 * max(1.0, sigma):
                    # So thin an event has, to second order, the midpoint as its mean.
                    out.append((prob, 0.5 * (lo + x if below else x + hi)))
                    continue
                if df <= _MIN_EVENT_PROB:
                    out.append((prob, ValueError("empty conditioning event (numerically zero probability)")))
                    continue
            if pdf_x is None:
                pdf_x = exp(-0.5 * z * z) / scale
            out.append((prob, mu - sigma2 * (pdf_x - pdf_lo if below else pdf_hi - pdf_x) / df))
        return out

    def blocks(self, rng: np.random.Generator) -> Iterator[tuple[np.ndarray, None]]:
        """Endless i.i.d. draws of the truncated law from rng, in blocks
        growing from BLOCK to MAX_BLOCK.

        A draw outside the support is dropped, not clipped: a block is the
        next n draws of rng's stream that fall inside it, so the path is
        the same whatever the block sizes, and a block with no draw outside
        is the draws themselves.  A point mass draws mu exactly (a normal of
        scale 0).  Yields (prices, None): nothing is clamped.  A support
        with less than _MIN_DRAW_MASS of the normal's mass is refused: it
        would cost over 1/_MIN_DRAW_MASS draws a price.
        """
        import numpy as np
        if not self.is_point_mass and not self.mass >= _MIN_DRAW_MASS:
            raise ValueError(f"truncated support carries too little probability mass to draw from ({self.mass!r})")
        mu, sigma, lo, hi = self.mu, self.sigma, self.support_lo, self.support_hi
        # The ufuncs' own reductions: ndarray.min and max add a Python call each.
        least, most = np.minimum.reduce, np.maximum.reduce
        for size in _block_sizes():
            block = rng.normal(mu, sigma, size=size)
            while least(block) < lo or most(block) > hi:
                block = block[(block >= lo) & (block <= hi)]
                block = np.concatenate((block, rng.normal(mu, sigma, size=size - len(block))))
            yield block, None


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

    def blocks(self, rng: np.random.Generator) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Endless clamped walk: p0 alone, then blocks growing from BLOCK to MAX_BLOCK.

        Yields (prices, clamped), where clamped flags the prices the floor
        caught.  Prices are the same floats as adding the steps one by one, and
        the steps are rng's stream whatever the block sizes.
        """
        import numpy as np
        p = float(self.p0)
        yield np.array([p]), np.zeros(1, dtype=bool)
        for size in _block_sizes():
            steps = rng.normal(self.mu_step, self.sigma_step, size=size)
            # accumulate adds left to right: each price is previous + step.
            prices = np.add.accumulate(np.concatenate(([p], steps)))[1:]
            clamped = prices < self.floor
            if clamped.any():
                # A clamp restarts the walk at the floor; go step by step from it.
                i = int(clamped.argmax())
                q = float(prices[i - 1]) if i else p
                tail: list[float] = []
                flags: list[bool] = []
                for step in steps[i:].tolist():
                    q += step
                    flags.append(q < self.floor)
                    if flags[-1]:
                        q = self.floor
                    tail.append(q)
                prices[i:] = tail
                clamped[i:] = flags
            p = float(prices[-1])
            yield prices, clamped


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

    def blocks(self, rng: np.random.Generator | None = None) -> Iterator[tuple[np.ndarray, None]]:
        """The series in blocks growing from BLOCK to MAX_BLOCK; exhaustion
        ends the path.  A series draws nothing, so rng is ignored."""
        import numpy as np
        prices = self.prices
        start = 0
        for size in _block_sizes():
            if start >= len(prices):
                return
            yield np.array(prices[start : start + size]), None
            start += size


def mean_of(mean: float | ValueError) -> float:
    """A mean from NormalSpec.tail, raising the error of an empty event."""
    if isinstance(mean, ValueError):
        raise mean
    return mean


def random_walk(spec: WalkSpec, n: int, seed: int) -> PriceSeries:
    """Generate n prices of the clamped walk, drawn from default_rng(seed);
    clamp events are counted."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    import numpy as np
    prices: list[float] = []
    clamps = 0
    for block, clamped in spec.blocks(np.random.default_rng(seed)):
        take = n - len(prices)
        prices.extend(block[:take].tolist())
        clamps += int(clamped[:take].sum())
        if len(prices) == n:
            break
    return PriceSeries(prices=tuple(prices), source="walk", seed=seed, clamp_count=clamps)


def _price(raw: str) -> float:
    """A price field as a float.  float() also reads "1_5" as 15.0 and the
    digits of other scripts (Arabic-Indic three as 3.0); a price file means
    neither, so a field that is not ASCII or holds "_" is refused as float()
    refuses any other text."""
    if not raw.isascii() or "_" in raw:
        raise ValueError(f"could not convert string to float: {raw!r}")
    return float(raw)


def _split_prices(fh: TextIO, col: int, ncols: int) -> list[float]:
    """Field col of each non-blank row left in fh, as floats (_price's).

    Chunks are fh.readlines(65536)'s: 64 Ki characters and the rest of the
    last line.  One that ends at a line end, is ASCII with no "_", quote, NUL
    or line over the csv field limit, and has ncols - 1 commas and then "\n"
    or "\r\n" on each line (the structure guard, one bytes comparison, which
    finds a bare CR too; a one-column file, whose blank lines would pass,
    never does) is split whole: csv.reader's rows are its lines split at
    commas, less the line ends float() strips.  The first chunk that fails a
    guard and the rest of the file go through csv.reader, the chunk split
    into lines as the file is: every chunk before it ended at a line end
    outside any quote.  A short row raises IndexError, a bad price
    ValueError, a line csv.reader cannot parse csv.Error.
    """
    limit, others = csv.field_size_limit(), bytes(set(range(256)) - set(b",\r\n"))
    prices: list[float] = []
    while text := fh.read(65536):
        text += fh.readline() if len(text) == 65536 else ""
        shape = text.encode().translate(None, others).replace(b"\r\n", b"\n")
        if (ncols < 2 or text[-1] != "\n" or '"' in text or "\0" in text or "_" in text or not text.isascii()
                or shape != (b"," * (ncols - 1) + b"\n") * (len(shape) // ncols)
                or len(text) > limit and max(map(len, text.split("\n"))) > limit):
            prices += [_price(row[col]) for row in filter(None, csv.reader(chain(io.StringIO(text, newline=""), fh)))]
            break
        prices += map(float, text.replace("\n", ",").split(",")[col:-1:ncols])
    return prices


def load_csv(path: str, timestamp_column: str = "timestamp", price_column: str = "price") -> PriceSeries:
    """Load a price series from a CSV file with a header row.

    The file is UTF-8, and a byte-order mark before the header is dropped.
    Rows are kept in file order and blank lines are skipped; timestamps are
    not parsed, only required to be a column.  A column name given twice
    reads its last column.  A missing, non-numeric (non-ASCII or holding "_"
    included) or non-positive price is rejected with its row number
    (1-based, the header is row 1, blank lines are not counted), a file the
    csv module cannot parse with its line, and a file that is not UTF-8 with
    its path.

    csv.reader reads the header and _split_prices the body, once, in whole
    chunks where its guards pass.  Only a file that read fails on is read
    again, from the start, to name the first bad row or line.
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
                return PriceSeries(prices=tuple(_split_prices(fh, col, len(header))), source="csv")
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
                    p = _price(raw)
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

