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
also equals sqrt((A + D)^2 - 4 L1^i L2^j).  Every entry of M is >= 0, so
R is real, trace M >= 0 and det M >= 0: hence 0 <= a2 <= a1.  Decomposing
x_0 into eigen components c1 + c2 = x_0 gives x_k = a1^k c1 + a2^k c2 in
closed form, hence expected depletion times without simulation: reserves
are exhausted when the trader's backing holdings reach n_0 + R_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .prices import NormalSpec, TruncatedNormal, mean_of
from .speculator import SpeculatorParams, WaitingInterval

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
    "divergence_check",
]

# Rounds checked one by one before the shape of the trajectory is used.
_PREFIX = 8
# Terms below this sit near the subnormal range, where rounding is coarse.
_TINY = 2.0**-1000
_R_TOL = 1e-14


@dataclass(frozen=True)
class RoundMatrix:
    """Expected one-round transition matrix [[A, B], [C, D]], derived from its inputs.

    The inputs are y_ratio, the phase lengths i, j, the haircut powers lam1_i,
    lam2_j and sell_mean = E[p | p <= y1]; a replace() of any of them recomputes
    A..D.  repr leaves out sell_mean, which B and C carry, so a matrix prints as
    the nine numbers the pinned round-matrix digests hash.
    """

    A: float = field(init=False)
    B: float = field(init=False)
    C: float = field(init=False)
    D: float = field(init=False)
    y_ratio: float
    i: float
    j: float
    lam1_i: float
    lam2_j: float
    sell_mean: float = field(default=1.0, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.i < math.inf and 0.0 < self.j < math.inf):
            raise ValueError("phase lengths i, j must be finite and positive")
        if not 0.0 < self.sell_mean < math.inf:
            raise ValueError("sell_mean must be finite and positive")
        if not 0.0 < self.y_ratio < math.inf:
            raise ValueError("y_ratio must be finite and positive")
        if not (0.0 <= self.lam1_i <= 1.0 and 0.0 <= self.lam2_j <= 1.0):
            raise ValueError("haircut powers lam1_i, lam2_j must lie in [0, 1]")
        l1, l2, y = self.lam1_i, self.lam2_j, self.y_ratio
        for name, value in (("A", l2), ("B", l2 * (1.0 - l1) * (y * self.sell_mean)),
                            ("C", (1.0 - l2) / self.sell_mean), ("D", l1 + (1.0 - l1) * (1.0 - l2) * y)):
            object.__setattr__(self, name, value)

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

    def __post_init__(self):
        # Tested as < 0 so that a NaN passes, to be refused as not finite.
        if self.a1 < 0.0 or self.a2 < 0.0:
            raise ValueError("eigenvalues must be >= 0: a round matrix has no negative eigenvalue")


def round_matrix_from_params(
    i: float,
    j: float,
    y_ratio: float,
    sell_mean: float = 1.0,
    lambda_buy: float = 0.0,
    lambda_sell: float = 0.0,
) -> RoundMatrix:
    """The round matrix of the paper's haircut algebra: kept fractions lambda**i, lambda**j.

    sell_mean is E[p | p <= y1]; the buy-side mean is then y_ratio * sell_mean.
    """
    if not (0.0 < i < math.inf and 0.0 < j < math.inf):
        raise ValueError("phase lengths i, j must be finite and positive")
    if not (0.0 <= lambda_buy <= 1.0 and 0.0 <= lambda_sell <= 1.0):
        raise ValueError("haircuts must lie in [0, 1]")
    return RoundMatrix(y_ratio=y_ratio, i=i, j=j, lam1_i=lambda_buy**i, lam2_j=lambda_sell**j, sell_mean=sell_mean)


def build_round_matrix(dist: NormalSpec, interval: WaitingInterval, params: SpeculatorParams) -> RoundMatrix:
    """Round matrix for an i.i.d. price model and a trader's waiting interval.

    A point-mass dist has no density, so TruncatedNormal rejects it.
    """
    tn = TruncatedNormal(dist)
    (tail_sell, sell_mean), = tn.tail([interval.y1], True)
    (tail_buy, buy_mean), = tn.tail([interval.y2], False)
    if tail_buy <= 0.0 or tail_sell <= 0.0:
        raise ValueError(
            "trade-triggering prices have zero probability: the trader never "
            "trades on one side, so no round structure exists"
        )
    sell_mean, buy_mean = mean_of(sell_mean), mean_of(buy_mean)
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
    try:
        return math.sqrt((mat.A - mat.D) ** 2 + 4.0 * mat.B * mat.C)
    except OverflowError:
        raise ValueError("round matrix overflows: (A - D)^2 is out of float range") from None


def eigen(mat: RoundMatrix, x0: tuple[float, float]) -> EigenSystem:
    """Eigenvalues and the eigen split c1 + c2 = x0 (exactly) of the start x0 = (m, n).

    Requires distinct eigenvalues (R > 0); R = 0 happens only when both
    haircut powers equal 1, i.e. the matrix is the identity.  The
    eigenvalues come back as 0 <= a2 <= a1: a1 = (A + D + R) / 2 > R / 2 > 0,
    and a2 = det M / a1 = L1^i L2^j / a1, since (A + D - R) / 2 cancels
    where a2 is small.  A zero determinant gives a2 = 0.0 exactly.
    """
    r = discriminant(mat)
    if r <= _R_TOL:
        raise ValueError("eigen decomposition undefined: repeated eigenvalue (R = 0)")
    a1 = 0.5 * (mat.A + mat.D + r)
    a2 = mat.lam1_i * mat.lam2_j / a1
    m0, n0 = x0
    ad = mat.A - mat.D
    c1 = ((0.5 * (r + ad) * m0 + mat.B * n0) / r, (mat.C * m0 + 0.5 * (r - ad) * n0) / r)
    c2 = ((0.5 * (r - ad) * m0 - mat.B * n0) / r, (-mat.C * m0 + 0.5 * (r + ad) * n0) / r)
    return EigenSystem(a1=a1, a2=a2, c1=c1, c2=c2)


def expected_portfolio(sys: EigenSystem, k: float) -> tuple[float, float]:
    """Closed-form expected holdings after k rounds: a1^k c1 + a2^k c2."""
    if k < 0.0:
        raise ValueError("k must be >= 0")
    w1 = sys.a1**k
    w2 = sys.a2**k
    return (w1 * sys.c1[0] + w2 * sys.c2[0], w1 * sys.c1[1] + w2 * sys.c2[1])


def _backing_at(sys: EigenSystem, k: float) -> float:
    """Expected backing after k rounds; once a power overflows, +-inf with the
    sign of the larger base's coefficient (their sum for equal bases), whose
    term dominates."""
    try:
        return expected_portfolio(sys, k)[1]
    except OverflowError:
        a1, a2, c1n, c2n = sys.a1, sys.a2, sys.c1[1], sys.c2[1]
        return math.copysign(math.inf, c1n + c2n if a1 == a2 else c1n if a1 > a2 else c2n)


def _first_true(pred, lo: int, hi: int) -> int | None:
    """Smallest k in [lo, hi] with pred(k), for pred false-then-true there.

    Gallops out from lo before bisecting, so the cost is O(log(k - lo)) calls
    however far away hi is.  None when pred(hi) is false.
    """
    step = 1
    while True:
        probe = min(lo + step - 1, hi)
        if pred(probe):
            hi = probe
            break
        if probe == hi:
            return None
        lo = probe + 1
        step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _first_round(pred) -> int:
    """First round k >= 1 with pred(k), for pred that turns true and stays true."""
    return _first_true(pred, 1, 2**64)


def _overflows(bases: list[float], k: int) -> bool:
    try:
        for b in bases:
            b ** float(k)
    except OverflowError:
        return True
    return False


def _turning_point(p: float, x: float, q: float, y: float) -> float:
    """The m where p ln(x) x^m = -q ln(y) y^m, for x, y > 0 other than 1,
    whose logs differ; in logs, so that no product underflows."""
    return (math.log(abs(q)) + math.log(abs(math.log(y))) - math.log(abs(p)) - math.log(abs(math.log(x)))) / (
        math.log(x) - math.log(y))


def _rising_runs(p: float, x: float, q: float, y: float, last: int) -> list[tuple[int, int]]:
    """Runs of m in 0..last where g(m) = p x^m + q y^m may first reach a target.

    x, y >= 0, and g(-1) is known to miss the target.  g has at most one
    turning point m*, where p ln(x) x^m = -q ln(y) y^m.  Where g falls, the
    point before is higher, so a falling run holds no first crossing and is
    left out; rising runs come back whole, and the few m around m* one by
    one, so an error in m* cannot put a point on the wrong side.  The signs
    of p ln(x) and q ln(y) are taken from their factors, since a product
    with a subnormal p or q can round to 0.
    """

    def slope(c: float, b: float) -> int:
        # The sign of c ln(b): 0 for a term that is constant or vanishes.
        return 0 if c == 0.0 or b <= 0.0 or b == 1.0 else 1 if (c > 0.0) == (b > 1.0) else -1

    u, v = slope(p, x), slope(q, y)
    if x == y or (u and v and math.log(x) == math.log(y)):
        u, v = slope(p + q, x), 0
    if u == 0 or v == 0 or u == v:
        return [(0, last)] if u + v > 0 else []
    # g' = p ln(x) x^m + q ln(y) y^m changes sign once: the smaller base's
    # term leads before m*, the larger one's after it.
    m_star = _turning_point(p, x, q, y)
    before, after = (v > 0, u > 0) if x > y else (u > 0, v > 0)
    if not m_star > 0.0:
        # A turn after m = -1 can leave g(0) above g(-1) although g falls from 0.
        return [(0, last)] if after else [(0, 0)] if m_star > -1.0 else []
    if m_star >= last:
        return [(0, last)] if before else []
    margin = 2 + int(m_star * 1e-9)
    mid_lo = max(0, int(m_star) - margin)
    mid_hi = min(last, int(m_star) + 1 + margin)
    runs = [(0, mid_lo - 1)] if before and mid_lo > 0 else []
    runs += [(m, m) for m in range(mid_lo, mid_hi + 1)]
    if after and mid_hi < last:
        runs.append((mid_hi + 1, last))
    return runs


def _tail_peak(terms: list[tuple[float, float]], k: int) -> float:
    """A bound on the backing sum of c a^m over (a, c) in terms, as
    _backing_at evaluates it, at every round m >= k; each base is below 1.

    The closed form's maximum over real m >= k is at k, at its one turning
    point past k, or its limit 0.  The margin covers the rounding of each
    evaluation, this one's too: a few ulps of the terms' sizes |c| a^m, at
    most their sizes at k, and a few subnormal steps.
    """
    def backing(m: float) -> float:
        return sum(c * a**m for a, c in terms)

    peak = max(backing(float(k)), 0.0)
    if len(terms) == 2:
        (x, p), (y, q) = terms
        if x > 0.0 and y > 0.0 and math.log(x) != math.log(y) and (p > 0.0) != (q > 0.0):
            m = _turning_point(p, x, q, y)
            if m > k:
                peak = max(peak, backing(m))
    return peak + 2e-15 * sum(abs(c) * a ** float(k) for a, c in terms) + 1e-322


def _first_crossing(sys: EigenSystem, target: float) -> int | None:
    """Smallest integer k >= 1 with _backing_at(sys, k) >= target, or None.

    n_k = c1n a1^k + c2n a2^k, and every round is evaluated exactly as a
    unit-step scan would evaluate it.  Past a short prefix checked round by
    round, the backing from round k0 on is p a1^m + q a2^m at k = k0 + m,
    with a1, a2 >= 0, and only its rising runs can hold the first crossing,
    found there by galloping bisection.  The runs end the round before a
    base's power overflows (the backing is +-inf there: the answer if +inf
    and no round before it crosses), or one past the round where every
    decaying power has underflowed to 0.0, after which the backing repeats
    one value, so None is proven.  When the backing decays to 0, the rounds where every term is
    below _TINY are scanned one by one instead (subnormal rounding, not the
    closed form, orders them), unless the target is above the positive
    terms' sum at the first of them, which no later one exceeds, or above
    the tail's peak (_tail_peak).
    """

    def hits(k: int) -> bool:
        return _backing_at(sys, float(k)) >= target

    for k in range(1, _PREFIX + 1):
        if hits(k):
            return k
    a1, a2, c1n, c2n = sys.a1, sys.a2, sys.c1[1], sys.c2[1]
    big = [b for b in (a1, a2) if b > 1.0]
    small = [b for b in (a1, a2) if b < 1.0]
    overflow = _first_round(lambda k: _overflows(big, k)) if big else None
    underflow = _first_round(lambda k: all(b ** float(k) == 0.0 for b in small))
    last_k = overflow - 1 if overflow is not None else max(underflow, _PREFIX) + 1
    tail = range(0)
    terms = [(a, c) for a, c in ((a1, c1n), (a2, c2n)) if c != 0.0]
    if all(a < 1.0 for a, _ in terms):
        fine = _first_round(lambda k: all(abs(c) * a ** float(k) < _TINY for a, c in terms))
        if fine <= last_k:
            start = max(fine, _PREFIX + 1)
            if target <= min(sum(max(c, 0.0) * a ** float(fine) for a, c in terms), _tail_peak(terms, start)):
                tail = range(start, min(last_k, max(underflow, _PREFIX) + 1) + 1)
            last_k = fine - 1

    k0 = _PREFIX + 1
    if last_k >= k0:
        for first, stop in _rising_runs(c1n * a1**k0, a1, c2n * a2**k0, a2, last_k - k0):
            m = _first_true(lambda m: hits(k0 + m), first, stop)
            if m is not None:
                return k0 + m
    for k in tail:
        if hits(k):
            return k
    return overflow if overflow is not None and hits(overflow) else None


def expected_depletion_rounds(sys: EigenSystem, reserves0: float, n0: float) -> float:
    """Smallest k >= 0 with expected backing holdings n_k = n0 + reserves0.

    There is no horizon: the first whole round at or past the target is
    found by _first_crossing in O(log k) evaluations, each the same float a
    round-by-round scan would compute, then the fraction of the last round
    by bisection on the closed form.  math.inf comes only from that search,
    when the trajectory settles (every decaying term underflowed) below the
    target, or when the backing falls to -inf.  Where the larger base is
    above 1, its term decides where the backing ends: a positive
    coefficient crosses by the round where its power overflows at the
    latest, and a negative one drives the backing to -inf there, so only an
    earlier round can cross.
    """
    if not (math.isfinite(reserves0) and reserves0 >= 0.0):
        raise ValueError("reserves0 must be finite and >= 0")
    if not math.isfinite(n0):
        raise ValueError("n0 must be finite")
    a1, a2, c1n, c2n = sys.a1, sys.a2, sys.c1[1], sys.c2[1]
    if not all(math.isfinite(v) for v in (a1, a2, c1n, c2n)):
        raise ValueError("eigen system is not finite: the round matrix overflowed")
    # A term whose coefficient is 0 adds nothing, however far its power
    # would overflow: its base becomes 0, whose powers never do.
    a1, a2 = (a if c != 0.0 else 0.0 for a, c in ((a1, c1n), (a2, c2n)))
    sys = replace(sys, a1=a1, a2=a2)
    target = n0 + reserves0
    if _backing_at(sys, 0.0) >= target:
        return 0.0
    k = _first_crossing(sys, target)
    if k is None:
        return math.inf
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


def rounds_to_timesteps(k: float, i: float, j: float) -> float:
    """Expected timesteps for k rounds: i + k (i + j)."""
    if i <= 0.0 or j <= 0.0:
        raise ValueError("phase lengths i, j must be positive")
    if k < 0.0:
        raise ValueError("k must be >= 0")
    return i + k * (i + j)


def divergence_check(mat: RoundMatrix, x0: tuple[float, float]) -> bool:
    """True iff expected backing holdings grow without bound.

    The characteristic polynomial of the round matrix, evaluated at 1, is
    (1 - L1^i)(1 - L2^j)(1 - Y), and its determinant L1^i L2^j is at most 1,
    so the dominant eigenvalue a1 exceeds 1 exactly when Y > 1 and neither
    L1^i nor L2^j equals 1.  Holdings then grow like a1^k from any nontrivial
    start portfolio; otherwise (Y < 1 included, where a1 < 1 and the
    backing decays) the trajectory stays inside the band c1 +/- |c2|.
    """
    m0, n0 = x0
    if m0 < 0.0 or n0 < 0.0:
        raise ValueError("x0 must be componentwise nonnegative")
    if m0 == 0.0 and n0 == 0.0:
        return False
    return mat.y_ratio > 1.0 and mat.lam1_i != 1.0 and mat.lam2_j != 1.0
