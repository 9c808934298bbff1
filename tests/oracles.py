"""Reference formulas that only the tests use.

optimal_profit_bruteforce is the exhaustive oracle for theory's linear-time
profit ledger; it builds its products from theory's own per-action factors,
so the two agree bit for bit.  sensitivity_check and realized_profit_trace
compare a simulated trader's profit against that optimum.  pdf is the normal
density the quadrature oracles integrate, and y_ratio_normal the untruncated
closed form of the round matrix's Y.  load_csv_rows reads a price csv row by
row with csv.DictReader, the reference for prices.load_csv's one csv.reader.
"""

import csv
import math

from pegstress.prices import NormalSpec, PriceSeries, cdf
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
    prices or the same ValueError message, and csv.Error where the file does
    not parse."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
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
                p = float(raw)
            except ValueError:
                raise ValueError(f"{path}: row {row_no}: non-numeric price {raw!r}") from None
            if not (math.isfinite(p) and p > 0.0):
                raise ValueError(f"{path}: row {row_no}: price must be finite and > 0, got {raw!r}")
            prices.append(p)
    if not prices:
        raise ValueError(f"{path}: no data rows")
    return PriceSeries(prices=tuple(prices), source="csv")
