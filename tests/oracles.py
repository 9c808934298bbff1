"""Reference formulas that only the tests use.

optimal_profit_bruteforce is the exhaustive oracle for theory's linear-time
profit ledger; it builds its products from theory's own per-action factors,
so the two agree bit for bit.  ledger_every_step is that ledger as it was
when it kept a trace entry at every price, the reference for the step
function that theory's ledger records.  sensitivity_check and
realized_profit_trace compare a simulated trader's profit against that
optimum.  pdf is the normal
density the quadrature oracles integrate, cdf its distribution function,
and y_ratio_normal the untruncated closed form of the round matrix's Y.
load_csv_rows reads a price csv row by
row with csv.DictReader, the reference for prices.load_csv's one csv.reader.
ScalarTruncatedNormal evaluates the truncated normal one point and one
quantity at a time, the reference for NormalSpec.tail's batched pass.
full_scan_argmax scores every point of speculator._argmax's grid, the
reference for its pruned scan.  expected_portfolio is the closed form's
holdings in plain floats, and depletion_gap_states the exact sign of each
round's gap to a depletion target, the reference for
rounds.expected_depletion_rounds.
"""

import csv
import decimal
import math
from fractions import Fraction

from pegstress.prices import NormalSpec, PriceSeries
from pegstress.rounds import EigenSystem
from pegstress.speculator import _GOLDEN, _GRID_STEPS, _XTOL, GRID_POINTS
from pegstress.theory import _buy_factor, _sell_factor

BRUTEFORCE_MAX_LEN = 14


def optimal_profit_bruteforce(
    series: PriceSeries, eps_alpha: float, eps_beta: float, n0: float = 1.0
) -> tuple[float, ...]:
    """Optimal-trader profit trace by exhaustive schedule enumeration.

    Every alternating buy/sell schedule is a subset of timesteps read in
    order (odd positions buy, even positions sell); subsets ending on a buy
    never help backing profit and are skipped.  s_t is the best wealth
    multiple completed by step t, minus 1, scaled by n0.  Exponential in the
    length, so the series must have at most BRUTEFORCE_MAX_LEN prices.
    """
    t_len = len(series)
    if t_len > BRUTEFORCE_MAX_LEN:
        raise ValueError(f"series too long for exhaustive search (max {BRUTEFORCE_MAX_LEN})")
    prices = series.prices
    best_done_at = [1.0] * (t_len + 1)
    for mask in range(1 << t_len):
        if bin(mask).count("1") % 2 == 1:
            continue
        wealth = 1.0
        buying = True
        last = -1
        for idx in range(t_len):
            if mask >> idx & 1:
                p = prices[idx]
                wealth *= _buy_factor(p, eps_alpha) if buying else _sell_factor(p, eps_beta)
                buying = not buying
                last = idx
        if wealth > best_done_at[last + 1]:
            best_done_at[last + 1] = wealth
    trace = []
    running = 1.0
    for t in range(1, t_len + 1):
        running = max(running, best_done_at[t])
        trace.append(n0 * (running - 1.0))
    return tuple(trace)


def ledger_every_step(prices, eps_alpha: float, eps_beta: float, n0: float) -> tuple[list[float], list[int], list[int]]:
    """The linear-time profit ledger with a trace entry at every price.

    Tracks the best achievable all-out wealth multiple and the best all-in
    stablecoin multiple; each price may extend either by one action.  Returns
    the profit trace scaled by n0, the ascending steps where a sell raised the
    all-out best and those where a buy raised the all-in best.
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


def sensitivity_check(r_trace, s_trace, n0: float) -> float:
    """Smallest k >= 1 with r_t >= (n0 / k) * s_t for all t.

    s_trace is the unit-endowment optimal profit trace; r_trace is the profit
    actually realized by the trader under test.  Returns math.inf ("not
    sensitive") when some r_t <= 0 while s_t > 0.
    """
    if len(r_trace) != len(s_trace):
        raise ValueError("traces must have the same length")
    k = 1.0
    for r, s in zip(r_trace, s_trace):
        if s > 0.0:
            if r <= 0.0:
                return math.inf
            k = max(k, n0 * s / r)
    return k


def realized_profit_trace(prices, n_seq, m_seq, eps_beta: float, n0: float) -> tuple[float, ...]:
    """Realized profit per step: peak liquidation value so far, minus n0.

    Liquidation value marks stablecoins at the current redemption rate
    (1 - eps_beta) / p, ignoring reserve caps; the peak is what the trader
    could have banked by stopping at its best moment, the same convention the
    profit oracles use.
    """
    if not (len(prices) == len(n_seq) == len(m_seq)):
        raise ValueError("price and holdings sequences must have the same length")
    peak = n0
    out = []
    for p, n, m in zip(prices, n_seq, m_seq):
        value = n + m * _sell_factor(p, eps_beta)
        if value > peak:
            peak = value
        out.append(peak - n0)
    return tuple(out)


def pdf(spec: NormalSpec, x: float) -> float:
    """Normal density of N(mu, sigma2) at x (no truncation renormalisation)."""
    if spec.is_point_mass:
        raise ValueError("degenerate distribution: pdf undefined for a point mass (sigma2 == 0)")
    z = (x - spec.mu) / spec.sigma
    return math.exp(-0.5 * z * z) / (spec.sigma * math.sqrt(2.0 * math.pi))


def cdf(spec: NormalSpec, x: float) -> float:
    """Normal CDF of N(mu, sigma2) at x (no truncation renormalisation)."""
    if spec.is_point_mass:
        return 0.0 if x < spec.mu else 1.0
    return 0.5 * (1.0 + math.erf(((x - spec.mu) / spec.sigma) / math.sqrt(2.0)))


class ScalarTruncatedNormal:
    """NormalSpec.tail one point and one quantity at a time: at, then event
    and mean at the (x, CDF) that at returns, from this module's cdf and
    pdf.  Each raises its ValueError where NormalSpec.tail reports one."""

    THIN, NARROW, EMPTY = 1e-8, 1e-2, 1e-13

    def __init__(self, spec: NormalSpec) -> None:
        self.spec, self.mu, self.sigma, self.sigma2 = spec, spec.mu, spec.sigma, spec.sigma2
        self.lo, self.hi = spec.support_lo, spec.support_hi
        self.cdf_lo, self.cdf_hi = cdf(spec, self.lo), cdf(spec, self.hi)
        self.mass = self.cdf_hi - self.cdf_lo

    def _beyond(self, x: float) -> float:
        """The normal's mass beyond x on x's side of mu, from erfc."""
        return 0.5 * math.erfc(abs((x - self.mu) / self.sigma) / math.sqrt(2.0))

    def at(self, x: float) -> tuple[float, float]:
        """x clamped to the support, and the untruncated CDF there."""
        if x <= self.lo:
            return self.lo, self.cdf_lo
        if x >= self.hi:
            return self.hi, self.cdf_hi
        return x, cdf(self.spec, x)

    def event(self, x: float, c: float, below: bool) -> tuple[float, float, bool]:
        """(F(x) - F(lo) or F(hi) - F(x), P on the support, thin) for the
        event below or above (x, c) from at.  An event is thin under THIN
        of mass at an edge between 0 and mu; a thin event on one side of mu
        has its mass from erfc, and P is that mass over the support's."""
        lo, hi, mu = self.lo, self.hi, self.mu
        if x <= lo:
            prob = 0.0
        elif x >= hi:
            prob = 1.0
        elif self.mass <= 0.0:
            raise ValueError("truncated support carries no probability mass")
        else:
            prob = (c - self.cdf_lo) / self.mass
        df = c - self.cdf_lo if below else self.cdf_hi - c
        prob = prob if below else 1.0 - prob
        edge = lo if below else hi
        thin = df < self.THIN and (0.0 < edge < mu or mu < edge < 0.0)
        if thin and lo < x < hi and (x <= mu) == (edge <= mu):
            df = abs(self._beyond(x) - self._beyond(edge))
            prob = df / self.mass
        return df, prob, thin

    def mean(self, x: float, below: bool, df: float, thin: bool) -> float:
        """E[p | p <= x] or E[p | p >= x] on the support, for x from at and
        the event's mass and thinness from event: the x*f expansion, a
        narrow thin event's edge expansion, or the midpoint of another
        event under EMPTY of mass and 1e-6 sigma of width."""
        a, b = (self.lo, x) if below else (x, self.hi)
        if b - a == 0.0:
            raise ValueError("empty conditioning event: {p <= x} has no mass below the support" if below
                             else "empty conditioning event: {p >= x} has no mass above the support")
        if thin:
            edge, rise = (a, self.mu - a) if below else (b, b - self.mu)
            s = rise * (b - a) / self.sigma2
            if abs(s) <= self.NARROW:
                offset = (b - a) * (0.5 + (s - 0.5 * ((b - a) / self.sigma) ** 2) / 12.0)
                return edge + offset if below else edge - offset
        elif df <= self.EMPTY and b - a <= 1e-6 * max(1.0, self.sigma):
            return 0.5 * (a + b)
        if df <= self.EMPTY:
            raise ValueError("empty conditioning event (numerically zero probability)")
        return self.mu - self.sigma2 * (pdf(self.spec, b) - pdf(self.spec, a)) / df


def full_scan_argmax(dist: NormalSpec, below: bool, value, lo: float, hi: float) -> tuple[float, float]:
    """speculator._argmax scoring all GRID_POINTS points in one tail call,
    then raising the first point's error, then any non-finite value."""
    if hi < lo:
        raise ValueError("empty search interval")

    def f(x: float) -> float:
        return value(*dist.tail([x], below)[0])

    if hi == lo:
        return lo, f(lo)
    span, last = hi - lo, GRID_POINTS - 1
    xs = [lo + span * k / last for k in _GRID_STEPS]
    vals = [value(prob, mean) for prob, mean in dist.tail(xs, below)]
    for v in vals:
        if not math.isfinite(v):
            raise ValueError("objective is non-finite on the search interval")
    best = vals.index(max(vals))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, last)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= _XTOL:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x_star = c if fc >= fd else d
    v_star = max(fc, fd)
    if vals[best] >= v_star:
        return xs[best], vals[best]
    return x_star, v_star


def y_ratio_normal(dist: NormalSpec, y1: float, y2: float) -> float:
    """Y for a normal model in terms of pdf/cdf at the thresholds:

        Y = (mu + sigma^2 f(y2) / (1 - F(y2))) / (mu - sigma^2 f(y1) / F(y1))

    using the untruncated density and CDF, so it matches the conditional-mean
    ratio only up to truncation effects (negligible for supports of several
    sigma).
    """
    if dist.is_point_mass:
        # Both correction terms carry a sigma^2 factor, so the ratio is mu/mu.
        return 1.0
    f1, f2 = cdf(dist, y1), cdf(dist, y2)
    if f1 <= 0.0 or (1.0 - f2) <= 0.0:
        raise ValueError("thresholds leave one tail empty")
    numerator = dist.mu + dist.sigma2 * pdf(dist, y2) / (1.0 - f2)
    denominator = dist.mu - dist.sigma2 * pdf(dist, y1) / f1
    if denominator <= 0.0:
        raise ValueError(
            "sell-side conditional mean is nonpositive; raise support_lo (or "
            "y1) so prices below the threshold stay positive"
        )
    return numerator / denominator


def load_csv_rows(path: str, timestamp_column: str = "timestamp", price_column: str = "price") -> PriceSeries:
    """prices.load_csv by csv.DictReader, one row dict at a time: the same
    prices or the same ValueError message, also where the file does not
    parse or is not UTF-8."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            return _dict_rows_series(path, reader, timestamp_column, price_column)
        except csv.Error as exc:
            # DictReader's own line_num is that of the last row it returned.
            raise ValueError(f"{path}: line {reader.reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 ({exc.reason}: {exc.object[exc.start:exc.end].hex(' ')})") from None


def _dict_rows_series(path: str, reader: csv.DictReader, timestamp_column: str, price_column: str) -> PriceSeries:
    if reader.fieldnames is None:
        raise ValueError(f"{path}: empty file (missing header row)")
    for col in (timestamp_column, price_column):
        if col not in reader.fieldnames:
            raise ValueError(f"{path}: missing column {col!r} (header has {reader.fieldnames})")
    prices: list[float] = []
    for row_no, row in enumerate(reader, start=2):
        raw = row.get(price_column)
        if raw is None or raw.strip() == "":
            raise ValueError(f"{path}: row {row_no}: missing price value")
        try:
            if not raw.isascii() or "_" in raw:  # float() reads "1_5" and other scripts' digits
                raise ValueError(raw)
            p = float(raw)
        except ValueError:
            raise ValueError(f"{path}: row {row_no}: non-numeric price {raw!r}") from None
        if not (math.isfinite(p) and p > 0.0):
            raise ValueError(f"{path}: row {row_no}: price must be finite and > 0, got {raw!r}")
        prices.append(p)
    if not prices:
        raise ValueError(f"{path}: no data rows")
    return PriceSeries(prices=tuple(prices), source="csv")


def expected_portfolio(sys: EigenSystem, k: float) -> tuple[float, float]:
    """Closed-form expected holdings after k rounds: a1^k c1 + a2^k c2."""
    if k < 0.0:
        raise ValueError("k must be >= 0")
    w1 = sys.a1**k
    w2 = sys.a2**k
    return (w1 * sys.c1[0] + w2 * sys.c2[0], w1 * sys.c1[1] + w2 * sys.c2[1])


_WIDE = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def depletion_gap_states(sys: EigenSystem, target: float, last: int, first: int = 0, tol: float = 1e-12) -> list[int]:
    """For each round k = first..last, where the gap c1n a1^k + c2n a2^k - target
    lies against the round's largest term B (|c1n| a1^k, |c2n| a2^k or
    |target|, with 0^0 = 1): 1 above tol B, -1 below -tol B, 0 between.

    Rounds are scanned in 60-digit decimals, whose exponents hold any float
    and its powers without overflow or underflow, each power one product
    from the last.  That leaves an error near 1e-55 B, so a gap within
    1e-40 B of a bound is settled again in exact rationals: floats are
    dyadic.
    """

    def side(gap, big, bound):
        return 1 if gap > bound * big else -1 if gap < -bound * big else 0

    pairs = ((sys.a1, sys.c1[1]), (sys.a2, sys.c2[1]))
    states = []
    with decimal.localcontext(_WIDE):
        bases = [decimal.Decimal(a) for a, _ in pairs]
        coefs = [decimal.Decimal(c) for _, c in pairs]
        goal, bound, near = decimal.Decimal(target), decimal.Decimal(tol), decimal.Decimal("1e-40")
        powers = [b**first if first else decimal.Decimal(1) for b in bases]  # Decimal 0**0 raises
        for k in range(first, last + 1):
            terms = [c * w for c, w in zip(coefs, powers)] + [-goal]
            gap, big = sum(terms), max(map(abs, terms))
            if abs(abs(gap) - bound * big) > near * big:
                states.append(side(gap, big, bound))
            else:
                exact = [Fraction(c) * Fraction(a) ** k for a, c in pairs] + [-Fraction(target)]
                states.append(side(sum(exact), max(map(abs, exact)), Fraction(tol)))
            powers = [w * b for w, b in zip(powers, bases)]
    return states
