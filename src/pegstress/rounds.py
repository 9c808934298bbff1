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

where L1^i, L2^j are the fractions of the backing and of the stablecoins
kept over a buy and a sell phase: the paper's powers of the haircuts L1, L2
in round_matrix_from_params, their mean over the phase's trade count in
build_round_matrix.  Fees (with_fees) scale B by 1 / (1 + eps_alpha), C by
1 - eps_beta and Y by f = (1 - eps_beta) / (1 + eps_alpha).  M has eigenvalues

    a_{1,2} = (A + D +/- R) / 2,    R = sqrt((A - D)^2 + 4 B C),

and because det M = L1^i L2^j (so B C = A D - L1^i L2^j), the discriminant
also equals sqrt((A + D)^2 - 4 L1^i L2^j).  Every entry of M is >= 0, so
R is real, trace M >= 0 and det M >= 0: hence 0 <= a2 <= a1.  Decomposing
x_0 into eigen components c1 + c2 = x_0 gives x_k = a1^k c1 + a2^k c2 in
closed form, hence expected depletion times without simulation: reserves
are exhausted when the trader's backing holdings reach n_0 + R_0.  The
depletion round is that of the exact closed form of the given floats, each
round decided from the terms' logs: no crossing is made or missed by a
power's overflow or underflow, or by rounding on the subnormal grid.

That round is when the expected backing crosses the target, not the mean
round at which a trial's backing first does; for the all-in trader (no
haircut) renewal.first_passage gives that mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .mechanism import check_schedule
from .prices import NormalSpec, TruncatedNormal, mean_of
from .speculator import SpeculatorParams, WaitingInterval

__all__ = [
    "RoundMatrix",
    "EigenSystem",
    "build_round_matrix",
    "round_matrix_from_params",
    "with_fees",
    "critical_fee",
    "discriminant",
    "eigen",
    "expected_depletion_rounds",
    "rounds_to_timesteps",
    "divergence_check",
]

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

    The haircut powers are those of the trader the engine runs.  It buys at
    each price above y2 until the first below y1, so a buy phase holds B
    buys with P(B = b) = qa^(b-1) qb, qa = j / (i + j), qb = i / (i + j), and
    keeps E[L1^B] = L1 i / (i + j (1 - L1)) of its backing; a sell phase
    likewise keeps E[L2^S] = L2 j / (j + i (1 - L2)).  At a haircut of 0 the
    power is 0.0 and at 1 it is 1.0, as for L1^i and L2^j.  A point-mass
    dist has no density, so TruncatedNormal rejects it.
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
    i, j, l1, l2 = 1.0 / tail_buy, 1.0 / tail_sell, params.lambda_buy, params.lambda_sell
    return RoundMatrix(y_ratio=buy_mean / sell_mean, i=i, j=j, lam1_i=l1 * i / (i + j * (1.0 - l1)),
                       lam2_j=l2 * j / (j + i * (1.0 - l2)), sell_mean=sell_mean)


def with_fees(mat: RoundMatrix, eps_alpha: float, eps_beta: float) -> RoundMatrix:
    """mat for a trader who pays a mint fee eps_alpha and a redeem fee eps_beta.

    A mint gives p / (1 + eps_alpha) stablecoins per backing coin and a
    redemption pays (1 - eps_beta) / p, so B scales by 1 / (1 + eps_alpha),
    C by 1 - eps_beta and Y by f = (1 - eps_beta) / (1 + eps_alpha): the
    matrix of y_ratio * f and sell_mean / (1 - eps_beta).  At zero fees it
    equals mat.
    """
    check_schedule(0.0, eps_alpha, eps_beta)  # the fees' rules; a matrix has no reserves
    f = (1.0 - eps_beta) / (1.0 + eps_alpha)
    return replace(mat, y_ratio=mat.y_ratio * f, sell_mean=mat.sell_mean / (1.0 - eps_beta))


def critical_fee(mat: RoundMatrix, x0: tuple[float, float]) -> float:
    """The symmetric fee eps = eps_alpha = eps_beta at which the fee-free mat
    stops diverging from x0: with_fees scales Y by (1 - eps) / (1 + eps),
    which is 1 / Y at eps = (Y - 1) / (Y + 1).  0.0 when mat does not
    diverge at zero fees (divergence_check).
    """
    if not divergence_check(mat, x0):
        return 0.0
    return (mat.y_ratio - 1.0) / (mat.y_ratio + 1.0)


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


# The depletion search's gallops stop here.  A term's log at round 0 (of
# |c|, or of |c (a - 1)| for the step from one round to the next) lies in
# [-800, 1420], and the logs of two distinct bases differ by 1e-16 or more,
# so by this round one term leads every other by far more than 1e16.
_LAST = 2**70


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


def _log_terms(sys: EigenSystem, target: float) -> list[tuple[float, float, float]]:
    """The terms c a^k of g(k) = n_k - target for k > 0, as (ln a, ln|c|,
    sign of c) by ascending base; the target is the term of base 1.

    Terms of equal ln a are merged, their coefficients summed.  A term with
    base 0 or (merged) coefficient 0 is 0 at every k > 0 and is left out.
    """
    merged: dict[float, float] = {}
    for a, c in ((sys.a1, sys.c1[1]), (sys.a2, sys.c2[1]), (1.0, -target)):
        if a > 0.0:
            la = math.log(a)
            merged[la] = merged.get(la, 0.0) + c
    return [(la, math.log(abs(c)), math.copysign(1.0, c)) for la, c in sorted(merged.items()) if c != 0.0]


def _nonnegative(terms: list[tuple[float, float, float]]):
    """The test k -> (sum of s e^(lc + k la) over (la, lc, s) in terms) >= 0,
    for at most three terms.

    Each term is scaled by the largest, to e^(l - top) <= 1, so no power
    overflows or underflows, and math.fsum gives the same sum in any order.
    A term's relative error is about 1e-16 (|lc| + |k la|).  Missing terms
    are filled with zeros (s = 0, e^lc = 0); with no term at all, the sum is
    0.
    """
    if not terms:
        return lambda k: True
    (la1, lc1, s1), (la2, lc2, s2), (la3, lc3, s3) = terms + [(0.0, -math.inf, 0.0)] * (3 - len(terms))
    exp, fsum = math.exp, math.fsum

    def test(k: float) -> bool:
        l1 = lc1 + k * la1
        l2 = lc2 + k * la2
        l3 = lc3 + k * la3
        top = max(l1, l2, l3)
        return fsum((s1 * exp(l1 - top), s2 * exp(l2 - top), s3 * exp(l3 - top))) >= 0.0

    return test


def _first_crossing(terms: list[tuple[float, float, float]], reaches) -> int | None:
    """Smallest round k >= 1 with reaches(k), or None, where reaches tests
    g(k) >= 0 for g's terms from _log_terms.

    Besides the constant, at most two terms move with k, so g has at most
    one turning point: k >= 1 splits into at most two monotone pieces.  The
    larger base's term leads as k grows, and when it rises, g rises to its
    limit: +inf for a base above 1, else the constant term.  If that limit
    is > 0, reaches is false, then true, on all of [1, inf), and galloping
    finds the crossing.  A rise, then a fall (a hill) peaks at the first
    round k with g(k + 1) < g(k), which galloping finds too, as g(k + 1) -
    g(k), the sum of c (a - 1) a^k, is a sum of the same form; the first
    crossing, if any, is at or before the peak.  In every other shape,
    each round past the first is below round 1 or below a limit of at most
    0, so only round 1 can cross.
    """
    moving = [t for t in terms if t[0] != 0.0]
    rises = [(la > 0.0) == (s > 0.0) for la, _, s in moving]
    if len(moving) == 2 and rises[0] and not rises[1]:
        steps = _nonnegative([(la, lc + math.log(abs(math.expm1(la))), s * math.copysign(1.0, la))
                              for la, lc, s in moving])
        peak = _first_true(lambda k: not steps(k), 1, _LAST)
        return _first_true(reaches, 1, peak or _LAST)
    if rises and rises[-1] and (moving[-1][0] > 0.0 or any(la == 0.0 and s > 0.0 for la, _, s in terms)):
        return _first_true(reaches, 1, _LAST)
    return 1 if reaches(1) else None


def expected_depletion_rounds(sys: EigenSystem, reserves0: float, n0: float) -> float:
    """Smallest k >= 0 with expected backing holdings n_k = n0 + reserves0.

    n_k = c1n a1^k + c2n a2^k is read as the exact closed form of the given
    floats: round 0 is the float sum c1n + c2n, and every later round is
    decided from the terms' logs (_nonnegative), so no power overflows or
    underflows, and a round whose gap to the target is within that test's
    rounding may go either way.  There is no horizon: _first_crossing finds
    the first whole round at or past the target in O(log k) tests, then the
    fraction of the last round is bisected with the same test.  math.inf
    means the closed form never reaches the target; a crossing that only
    float rounding would make does not count.
    """
    if not (math.isfinite(reserves0) and reserves0 >= 0.0):
        raise ValueError("reserves0 must be finite and >= 0")
    if not math.isfinite(n0):
        raise ValueError("n0 must be finite")
    c1n, c2n = sys.c1[1], sys.c2[1]
    if not all(math.isfinite(v) for v in (sys.a1, sys.a2, c1n, c2n)):
        raise ValueError("eigen system is not finite: the round matrix overflowed")
    target = n0 + reserves0
    if not math.isfinite(target):
        raise ValueError("n0 + reserves0 must be finite")
    if c1n + c2n >= target:
        return 0.0
    terms = _log_terms(sys, target)
    reaches = _nonnegative(terms)
    k = _first_crossing(terms, reaches)
    if k is None:
        return math.inf
    lo, hi = float(k - 1), float(k)
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if reaches(mid):
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
