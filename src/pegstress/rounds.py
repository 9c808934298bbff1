"""Closed-form round analytics for the trading cycle.

A round is a buy phase followed by a sell phase.  With buy prices above y2
arriving with probability 1 - F(y2) and sell prices below y1 with
probability F(y1), the expected phase lengths are

    i = 1 / (1 - F(y2)),    j = 1 / F(y1)

and the expected effect of one round on the portfolio x = (m, n) is linear:
x_{k} = M x_{k-1} with

    M = [[A, B], [C, D]],
    A = L2^j,
    B = L2^j (1 - L1^i) E[p | p >= y2],
    C = (1 - L2^j) / E[p | p <= y1],
    D = L1^i + (1 - L1^i)(1 - L2^j) Y,      Y = E[p | p >= y2] / E[p | p <= y1],

where L1, L2 are the buy/sell haircuts.  M has eigenvalues

    a_{1,2} = (A + D +/- R) / 2,    R = sqrt((A - D)^2 + 4 B C),

and because det M = L1^i L2^j (so B C = A D - L1^i L2^j), the discriminant
also equals sqrt((A + D)^2 - 4 L1^i L2^j).  Decomposing x_0 into eigen
components c1 + c2 = x_0 gives x_k = a1^k c1 + a2^k c2 in closed form, hence
expected depletion times without simulation: reserves are exhausted when the
trader's backing holdings reach n_0 + R_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .prices import NormalSpec, cdf, cond_mean_above, cond_mean_below, pdf, trunc_cdf
from .speculator import Portfolio, SpeculatorParams, WaitingInterval

__all__ = [
    "RoundMatrix",
    "EigenSystem",
    "build_round_matrix",
    "round_matrix_from_params",
    "discriminant",
    "eigen",
    "expected_portfolio",
    "expected_depletion_rounds",
    "rounds_to_timesteps",
    "y_ratio_normal",
    "divergence_check",
]

SCAN_HORIZON = 10**6
_R_TOL = 1e-14


@dataclass(frozen=True)
class RoundMatrix:
    """Expected one-round transition matrix [[A, B], [C, D]] plus provenance."""

    A: float
    B: float
    C: float
    D: float
    y_ratio: float
    i: float
    j: float
    lam1_i: float
    lam2_j: float

    def apply(self, x: tuple[float, float]) -> tuple[float, float]:
        m, n = x
        return (self.A * m + self.B * n, self.C * m + self.D * n)


@dataclass(frozen=True)
class EigenSystem:
    """Eigen decomposition of a round matrix at a starting portfolio."""

    a1: float
    a2: float
    c1: tuple[float, float]
    c2: tuple[float, float]
    x0: tuple[float, float]


def round_matrix_from_params(
    lambda_buy: float,
    lambda_sell: float,
    i: float,
    j: float,
    y_ratio: float,
    sell_mean: float = 1.0,
) -> RoundMatrix:
    """Assemble the round matrix directly from its parameters.

    sell_mean is E[p | p <= y1]; the buy-side mean is then y_ratio * sell_mean.
    """
    if i <= 0.0 or j <= 0.0:
        raise ValueError("phase lengths i, j must be positive")
    if sell_mean <= 0.0:
        raise ValueError("sell_mean must be positive")
    if y_ratio <= 0.0:
        raise ValueError("y_ratio must be positive")
    if not (0.0 <= lambda_buy <= 1.0 and 0.0 <= lambda_sell <= 1.0):
        raise ValueError("haircuts must lie in [0, 1]")
    lam1_i = lambda_buy**i
    lam2_j = lambda_sell**j
    buy_mean = y_ratio * sell_mean
    return RoundMatrix(
        A=lam2_j,
        B=lam2_j * (1.0 - lam1_i) * buy_mean,
        C=(1.0 - lam2_j) / sell_mean,
        D=lam1_i + (1.0 - lam1_i) * (1.0 - lam2_j) * y_ratio,
        y_ratio=y_ratio,
        i=i,
        j=j,
        lam1_i=lam1_i,
        lam2_j=lam2_j,
    )


def build_round_matrix(dist: NormalSpec, interval: WaitingInterval, params: SpeculatorParams) -> RoundMatrix:
    """Round matrix for an i.i.d. price model and a trader's waiting interval."""
    tail_buy = 1.0 - trunc_cdf(dist, interval.y2)
    tail_sell = trunc_cdf(dist, interval.y1)
    if tail_buy <= 0.0 or tail_sell <= 0.0:
        raise ValueError(
            "trade-triggering prices have zero probability: the trader never "
            "trades on one side, so no round structure exists"
        )
    sell_mean = cond_mean_below(dist, interval.y1)
    buy_mean = cond_mean_above(dist, interval.y2)
    return round_matrix_from_params(
        lambda_buy=params.lambda_buy,
        lambda_sell=params.lambda_sell,
        i=1.0 / tail_buy,
        j=1.0 / tail_sell,
        y_ratio=buy_mean / sell_mean,
        sell_mean=sell_mean,
    )


def discriminant(mat: RoundMatrix) -> float:
    """R = sqrt((A - D)^2 + 4 B C) >= 0."""
    return math.sqrt((mat.A - mat.D) ** 2 + 4.0 * mat.B * mat.C)


def eigen(mat: RoundMatrix, x0: Portfolio | tuple[float, float]) -> EigenSystem:
    """Eigenvalues and the eigen split of x0 (c1 + c2 = x0 exactly).

    Requires distinct eigenvalues (R > 0); R = 0 happens only when both
    haircut powers equal 1, i.e. the matrix is the identity.
    """
    if isinstance(x0, Portfolio):
        x0 = (x0.m, x0.n)
    r = discriminant(mat)
    if r <= _R_TOL:
        raise ValueError("eigen decomposition undefined: repeated eigenvalue (R = 0)")
    a1 = 0.5 * (mat.A + mat.D + r)
    a2 = 0.5 * (mat.A + mat.D - r)
    m0, n0 = x0
    ad = mat.A - mat.D
    c1 = ((0.5 * (r + ad) * m0 + mat.B * n0) / r, (mat.C * m0 + 0.5 * (r - ad) * n0) / r)
    c2 = ((0.5 * (r - ad) * m0 - mat.B * n0) / r, (-mat.C * m0 + 0.5 * (r + ad) * n0) / r)
    return EigenSystem(a1=a1, a2=a2, c1=c1, c2=c2, x0=x0)


def _pow_real(base: float, k: float) -> float:
    """base**k extended continuously to negative bases.

    Integer k is exact; between integers a negative base uses
    |base|^k * cos(pi k), which interpolates the alternating signs.
    """
    if base >= 0.0:
        return base**k
    if k == round(k):
        return base ** int(k)
    return abs(base) ** k * math.cos(math.pi * k)


def expected_portfolio(sys: EigenSystem, k: float) -> tuple[float, float]:
    """Closed-form expected holdings after k rounds: a1^k c1 + a2^k c2."""
    if k < 0.0:
        raise ValueError("k must be >= 0")
    w1 = _pow_real(sys.a1, k)
    w2 = _pow_real(sys.a2, k)
    return (w1 * sys.c1[0] + w2 * sys.c2[0], w1 * sys.c1[1] + w2 * sys.c2[1])


def _backing_at(sys: EigenSystem, k: float) -> float:
    try:
        return expected_portfolio(sys, k)[1]
    except OverflowError:
        return math.inf


def expected_depletion_rounds(sys: EigenSystem, reserves0: float, n0: float) -> float:
    """Smallest k >= 0 with expected backing holdings n_k = n0 + reserves0.

    Returns math.inf when the trajectory provably never reaches the target
    (non-divergent case: n_k stays inside the band c1 +/- |c2|) or when no
    crossing occurs within SCAN_HORIZON rounds.  The crossing is located by
    a unit-step scan (robust to the sign oscillation of a2 < 0) followed by
    bisection.
    """
    if reserves0 < 0.0:
        raise ValueError("reserves0 must be >= 0")
    target = n0 + reserves0
    if _backing_at(sys, 0.0) >= target:
        return 0.0
    c1n, c2n = sys.c1[1], sys.c2[1]
    if sys.a1 <= 1.0 and abs(sys.a2) <= 1.0:
        # Bounded trajectory: n_k can never exceed max(c1n, 0) + |c2n|.
        if target > max(c1n, 0.0) + abs(c2n):
            return math.inf
    for k in range(1, SCAN_HORIZON + 1):
        if _backing_at(sys, float(k)) >= target:
            lo, hi = float(k - 1), float(k)
            for _ in range(200):
                if hi - lo <= 1e-12 * max(1.0, hi):
                    break
                mid = 0.5 * (lo + hi)
                if _backing_at(sys, mid) >= target:
                    hi = mid
                else:
                    lo = mid
            return hi
    return math.inf


def rounds_to_timesteps(k: float, i: float, j: float) -> float:
    """Expected timesteps for k rounds: i + k (i + j)."""
    if i <= 0.0 or j <= 0.0:
        raise ValueError("phase lengths i, j must be positive")
    if k < 0.0:
        raise ValueError("k must be >= 0")
    return i + k * (i + j)


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


def divergence_check(mat: RoundMatrix, x0: Portfolio | tuple[float, float]) -> bool:
    """True iff expected backing holdings grow without bound.

    That happens exactly when none of Y, L1^i, L2^j equals 1 and the start
    portfolio is nontrivial; otherwise the trajectory stays inside the band
    c1 +/- |c2|.
    """
    if isinstance(x0, Portfolio):
        x0 = (x0.m, x0.n)
    m0, n0 = x0
    if m0 < 0.0 or n0 < 0.0:
        raise ValueError("x0 must be componentwise nonnegative")
    if m0 == 0.0 and n0 == 0.0:
        return False
    return mat.y_ratio != 1.0 and mat.lam1_i != 1.0 and mat.lam2_j != 1.0
