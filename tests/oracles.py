"""Reference formulas that only the tests use.

optimal_profit_bruteforce is the exhaustive oracle for theory's linear-time
profit ledger; it builds its products from theory's own per-action factors,
so the two agree bit for bit.  y_ratio_normal is the untruncated closed form
of the round matrix's Y.
"""

from pegstress.prices import NormalSpec, PriceSeries, cdf, pdf
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
