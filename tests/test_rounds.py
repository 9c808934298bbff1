"""Round-matrix analytics: construction, eigenpairs, and depletion times.

Closed-form values are checked three ways: hand-substituted small cases,
algebraic identities on random draws, and one seeded trade-level simulation
that must agree with the matrix formula to within Monte Carlo error.
"""

import dataclasses
import hashlib
import math
import time
import timeit
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from pegstress.prices import NormalSpec
from pegstress.rounds import (
    EigenSystem,
    RoundMatrix,
    build_round_matrix,
    critical_fee,
    discriminant,
    divergence_check,
    eigen,
    expected_depletion_rounds,
    round_matrix_from_params,
    rounds_to_timesteps,
    with_fees,
)
from pegstress.rounds import _log_terms, _nonnegative
from pegstress.speculator import SpeculatorParams, WaitingInterval, waiting_interval

from oracles import depletion_gap_states, expected_portfolio, y_ratio_normal

EX1_DIST = NormalSpec(100.0, 100.0)
EX1_PARAMS = SpeculatorParams(delta=0.1)
EX1_INTERVAL = waiting_interval(EX1_DIST, EX1_PARAMS)
EX1_MATRIX = build_round_matrix(EX1_DIST, EX1_INTERVAL, EX1_PARAMS)


def backing(sys_, k):
    """Expected backing c1n a1^k + c2n a2^k after k rounds, in floats.  A
    term with coefficient 0 is 0 whatever its power; where a power
    overflows, its term is taken from logs, as it may still be in range,
    and is +-inf past it."""
    total = 0.0
    for a, c in ((sys_.a1, sys_.c1[1]), (sys_.a2, sys_.c2[1])):
        if c != 0.0:
            try:
                total += c * a**k
            except OverflowError:
                log = math.log(abs(c)) + k * math.log(a)
                total += math.copysign(math.exp(log) if log < 709.7 else math.inf, c)
    return total


def scan_depletion_rounds(sys_, reserves0, n0, horizon):
    """Unit-step reference: the first whole round at or past the target,
    found round by round in floats up to horizon (None past it), then the
    last round bisected to 1e-12 relative with the search's own test."""
    target = n0 + reserves0
    if backing(sys_, 0.0) >= target:
        return 0.0
    for k in range(1, horizon + 1):
        if backing(sys_, float(k)) >= target:
            reaches = _nonnegative(_log_terms(sys_, target))
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
    return None


def check_first_crossing(sys_, target, got, last=4000):
    """The exact gap of every round up to got's (or to last): no earlier
    round is above the target, and got's round is not below it, each by
    more than 1e-12 of the round's largest term.  Returns the rounds'
    states (depletion_gap_states)."""
    first = math.ceil(got) if got <= last else last + 1
    states = depletion_gap_states(sys_, target, min(first, last))
    assert max(states[:first], default=0) <= 0
    if first <= last:
        assert states[first] >= 0
    return states


def scan_rounding_covers(sys_, target, k):
    """Whether the unit-step scan's verdict at round k may be its rounding's:
    the exact gap c1n a1^k + c2n a2^k - target is within 1e-12 of the
    round's largest term (as depletion_gap_states' ties), or within a few
    steps of the subnormal grid, 2^-1074, per unit of the coefficients."""
    pairs = ((sys_.a1, sys_.c1[1]), (sys_.a2, sys_.c2[1]))
    terms = [Fraction(c) * Fraction(a) ** k for a, c in pairs] + [-Fraction(target)]
    slack = Fraction(1e-12) * max(map(abs, terms)) + (1 + sum(abs(Fraction(c)) for _, c in pairs)) / 2**1072
    return abs(sum(terms)) <= slack


def slowly_diverging_matrix(eps, lam=0.25, i=10.0, j=4.0):
    """Round matrix with dominant eigenvalue 1 + eps: det M = L1 L2 and
    trace M = L1 + L2 + (1 - L1)(1 - L2) Y, so a1 pins Y."""
    l1, l2 = lam**i, lam**j
    a1 = 1.0 + eps
    trace = (a1 * a1 + l1 * l2) / a1
    y_ratio = (trace - l1 - l2) / ((1.0 - l1) * (1.0 - l2))
    return round_matrix_from_params(lambda_buy=lam, lambda_sell=lam, i=i, j=j, y_ratio=y_ratio)


def random_matrices(seed, count, y_min=1.0):
    """Draws over the full parameter box used by the matrix identities."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        mats.append(
            round_matrix_from_params(
                lambda_buy=float(rng.uniform(0.0, 1.0)),
                lambda_sell=float(rng.uniform(0.0, 1.0)),
                i=float(rng.uniform(1.0, 20.0)),
                j=float(rng.uniform(1.0, 20.0)),
                y_ratio=float(rng.uniform(y_min, 5.0)),
                sell_mean=float(rng.uniform(0.5, 150.0)),
            )
        )
    return mats


def apply_power(mat, x, k):
    for _ in range(k):
        x = mat.apply(x)
    return x


class TestRoundMatrixConstruction:
    def test_zero_haircuts_substitution(self):
        mat = round_matrix_from_params(lambda_buy=0.0, lambda_sell=0.0, i=3.0, j=2.0, y_ratio=1.4, sell_mean=2.0)
        assert mat.A == 0.0
        assert mat.B == 0.0
        assert mat.C == pytest.approx(0.5, rel=1e-15)
        assert mat.D == pytest.approx(1.4, rel=1e-15)
        assert mat.lam1_i == 0.0 and mat.lam2_j == 0.0

    def test_full_haircuts_identity(self):
        mat = round_matrix_from_params(lambda_buy=1.0, lambda_sell=1.0, i=4.0, j=7.0, y_ratio=2.0)
        assert (mat.A, mat.B, mat.C, mat.D) == (1.0, 0.0, 0.0, 1.0)
        # Identity matrix: applying it changes nothing.
        assert mat.apply((3.0, 5.0)) == (3.0, 5.0)

    def test_reference_config_phase_lengths(self):
        assert EX1_MATRIX.i == pytest.approx(10.057, rel=5e-3)
        assert EX1_MATRIX.j == pytest.approx(3.6954, rel=5e-3)

    def test_reference_config_y_ratio(self):
        assert EX1_MATRIX.y_ratio == pytest.approx(1.3396, rel=1e-3)
        assert EX1_MATRIX.y_ratio >= 1.0

    def test_determinant_identity(self):
        # BC = AD - lam1_i * lam2_j, the identity behind the second R formula.
        for mat in random_matrices(seed=11, count=500):
            lhs = mat.B * mat.C
            rhs = mat.A * mat.D - mat.lam1_i * mat.lam2_j
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_entry_signs(self):
        for mat in random_matrices(seed=12, count=200):
            assert mat.A == mat.lam2_j
            assert mat.B >= 0.0
            assert mat.C >= 0.0
            assert mat.D >= mat.lam1_i

    def test_trigger_outside_support_rejected(self):
        # y2 above the support: buying prices have probability zero.
        dead = WaitingInterval(y1=95.0, y2=EX1_DIST.support_hi + 10.0, x1=95.0, x2=120.0, s1=0.009)
        with pytest.raises(ValueError, match="zero probability"):
            build_round_matrix(EX1_DIST, dead, EX1_PARAMS)

    def test_point_mass_rejected(self):
        # A point mass has no density to condition on.  analyze never gets
        # here: waiting_interval raises NoTradeInterval for it first.
        band = WaitingInterval(y1=95.0, y2=105.0, x1=95.0, x2=105.0, s1=0.01)
        with pytest.raises(ValueError, match="degenerate distribution: no density for a point mass"):
            build_round_matrix(NormalSpec(100.0, 0.0), band, EX1_PARAMS)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lambda_buy=0.0, lambda_sell=0.0, i=0.0, j=2.0, y_ratio=1.2),
            dict(lambda_buy=0.0, lambda_sell=0.0, i=2.0, j=-1.0, y_ratio=1.2),
            dict(lambda_buy=0.0, lambda_sell=0.0, i=2.0, j=2.0, y_ratio=0.0),
            dict(lambda_buy=0.0, lambda_sell=0.0, i=2.0, j=2.0, y_ratio=1.2, sell_mean=0.0),
            dict(lambda_buy=1.5, lambda_sell=0.0, i=2.0, j=2.0, y_ratio=1.2),
            dict(lambda_buy=0.0, lambda_sell=-0.1, i=2.0, j=2.0, y_ratio=1.2),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            round_matrix_from_params(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("key", ["i", "j", "y_ratio", "sell_mean"])
    def test_non_finite_parameters_rejected(self, key, value):
        kwargs = dict(lambda_buy=0.5, lambda_sell=0.5, i=2.0, j=2.0, y_ratio=1.2, sell_mean=95.0)
        with pytest.raises(ValueError, match="must be finite and positive"):
            round_matrix_from_params(**dict(kwargs, **{key: value}))

    def test_pinned_round_matrices_with_haircuts(self):
        # repr of build_round_matrix over haircut pairs on normal sources, in
        # order, with the haircut powers averaged over each phase's trade
        # count (the trader the engine runs), not the paper's lambda**i.
        digest = hashlib.sha256()
        for sigma2 in (60.0, 100.0, 400.0):
            for delta in (0.05, 0.1, 0.2):
                dist = NormalSpec(100.0, sigma2)
                wi = waiting_interval(dist, SpeculatorParams(delta=delta))
                for lb in (0.0, 0.001, 0.3, 0.6, 0.9):
                    for ls in (0.0, 0.001, 0.3, 0.6, 0.9):
                        digest.update(repr(build_round_matrix(dist, wi, SpeculatorParams(delta, lb, ls))).encode())
        assert digest.hexdigest() == "1829bf9724f9867127a806d53050dc52d86ab199f1e8b33792aa7531e38feb28"

    def test_replace_recomputes_entries(self):
        kwargs = dict(lambda_buy=0.3, lambda_sell=0.3, i=5.0, j=3.0, y_ratio=1.4, sell_mean=2.0)
        mat = round_matrix_from_params(**kwargs)
        assert dataclasses.replace(mat, y_ratio=2.0) == round_matrix_from_params(**dict(kwargs, y_ratio=2.0))
        assert dataclasses.replace(mat, sell_mean=3.0) == round_matrix_from_params(**dict(kwargs, sell_mean=3.0))
        assert dataclasses.replace(mat, lam1_i=0.0, lam2_j=0.0) == round_matrix_from_params(
            **dict(kwargs, lambda_buy=0.0, lambda_sell=0.0)
        )

    def test_entries_are_not_inputs(self):
        mat = round_matrix_from_params(lambda_buy=0.3, lambda_sell=0.3, i=5.0, j=3.0, y_ratio=1.4)
        with pytest.raises(TypeError):
            RoundMatrix(A=mat.A, B=mat.B, C=mat.C, D=mat.D, y_ratio=1.4, i=5.0, j=3.0, lam1_i=mat.lam1_i,
                        lam2_j=mat.lam2_j)
        with pytest.raises(ValueError):
            dataclasses.replace(mat, D=2.0)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(i=0.0), "phase lengths i, j must be finite and positive"),
            (dict(j=math.inf), "phase lengths i, j must be finite and positive"),
            (dict(y_ratio=math.nan), "y_ratio must be finite and positive"),
            (dict(sell_mean=-1.0), "sell_mean must be finite and positive"),
            (dict(lam1_i=1.5), "haircut powers lam1_i, lam2_j must lie in \\[0, 1\\]"),
            (dict(lam2_j=math.nan), "haircut powers lam1_i, lam2_j must lie in \\[0, 1\\]"),
        ],
        ids=["i", "j", "y_ratio", "sell_mean", "lam1_i", "lam2_j"],
    )
    def test_direct_construction_checks_inputs(self, change, message):
        with pytest.raises(ValueError, match=message):
            RoundMatrix(**dict(dict(y_ratio=1.4, i=5.0, j=3.0, lam1_i=0.5, lam2_j=0.5), **change))

    def test_direct_zero_powers_give_zero_determinant(self):
        mat = RoundMatrix(y_ratio=1.4, i=5.0, j=3.0, lam1_i=0.0, lam2_j=0.0)
        assert mat.A == mat.B == 0.0
        assert (mat.C, mat.D) == (1.0, 1.4)
        assert eigen(mat, (0.0, 1.0)).a2 == 0.0


class TestDiscriminant:
    def test_inert_trader_r_zero(self):
        mat = round_matrix_from_params(lambda_buy=1.0, lambda_sell=1.0, i=5.0, j=5.0, y_ratio=3.0)
        assert discriminant(mat) == 0.0

    def test_zero_haircuts_r_equals_trace(self):
        # With both haircut powers 0 the matrix is [[0,0],[C,Y]], so R = A+D = Y.
        mat = round_matrix_from_params(lambda_buy=0.0, lambda_sell=0.0, i=4.0, j=3.0, y_ratio=1.7, sell_mean=95.0)
        r = discriminant(mat)
        assert r == pytest.approx(mat.A + mat.D, rel=1e-14)
        assert r == pytest.approx(mat.y_ratio, rel=1e-14)

    def test_both_formulas_agree(self):
        for mat in random_matrices(seed=13, count=1000):
            r1 = discriminant(mat)
            inner = (mat.A + mat.D) ** 2 - 4.0 * mat.lam1_i * mat.lam2_j
            r2 = math.sqrt(max(inner, 0.0))
            assert abs(r1 - r2) <= 1e-12 * max(1.0, r1)

    def test_lower_bound_strict_case(self):
        mat = round_matrix_from_params(lambda_buy=0.5, lambda_sell=0.5, i=3.0, j=2.0, y_ratio=1.2)
        assert discriminant(mat) > abs(mat.A + mat.D - 2.0) + 1e-6

    def test_lower_bound_equality_cases(self):
        # Equality holds when Y = 1 or when a haircut power equals 1.
        for mat in (
            round_matrix_from_params(lambda_buy=0.5, lambda_sell=0.5, i=3.0, j=2.0, y_ratio=1.0),
            round_matrix_from_params(lambda_buy=0.5, lambda_sell=1.0, i=3.0, j=2.0, y_ratio=1.4),
            round_matrix_from_params(lambda_buy=1.0, lambda_sell=0.5, i=3.0, j=2.0, y_ratio=1.4),
        ):
            assert abs(discriminant(mat) - abs(mat.A + mat.D - 2.0)) <= 1e-10

    def test_lower_bound_on_draws(self):
        for mat in random_matrices(seed=14, count=500):
            assert discriminant(mat) >= abs(mat.A + mat.D - 2.0) - 1e-10


class TestEigen:
    def test_triangular_case(self):
        # Y = 1 with zero haircuts gives M = [[0,0],[C,1]]: eigenvalues 1 and 0.
        mat = round_matrix_from_params(lambda_buy=0.0, lambda_sell=0.0, i=3.0, j=2.0, y_ratio=1.0, sell_mean=90.0)
        sys_ = eigen(mat, (0.0, 10.0))
        assert sys_.a1 == pytest.approx(1.0, abs=1e-12)
        assert sys_.a2 == pytest.approx(0.0, abs=1e-12)

    def test_reference_config_dominant_eigenvalue(self):
        sys_ = eigen(EX1_MATRIX, (0.0, 1.0))
        assert sys_.a1 == pytest.approx(1.3397, rel=1e-3)
        # Zero haircuts make the matrix singular, so the other eigenvalue is 0.
        assert abs(sys_.a2) <= 1e-12

    def test_zero_determinant_gives_zero_a2(self):
        # lambda_buy = 0 makes det M = L1^i L2^j exactly 0, so a2 = det / a1
        # is 0.0; (A + D - R) / 2 cancels to 1.1e-16 on this matrix.
        params = SpeculatorParams(delta=0.1, lambda_buy=0.0, lambda_sell=0.3)
        mat = build_round_matrix(EX1_DIST, waiting_interval(EX1_DIST, params), params)
        assert eigen(mat, (0.0, 1.0)).a2 == 0.0

    def test_repeated_eigenvalue_rejected(self):
        mat = round_matrix_from_params(lambda_buy=1.0, lambda_sell=1.0, i=2.0, j=2.0, y_ratio=1.5)
        with pytest.raises(ValueError, match="eigen decomposition undefined"):
            eigen(mat, (1.0, 1.0))

    def test_eigen_equations_hold(self):
        rng = np.random.default_rng(15)
        for mat in random_matrices(seed=16, count=300):
            x0 = (float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.0, 50.0)))
            sys_ = eigen(mat, x0)
            for vec, val in ((sys_.c1, sys_.a1), (sys_.c2, sys_.a2)):
                got = mat.apply(vec)
                want = (val * vec[0], val * vec[1])
                scale = max(1.0, abs(want[0]), abs(want[1]))
                assert abs(got[0] - want[0]) <= 1e-9 * scale
                assert abs(got[1] - want[1]) <= 1e-9 * scale

    def test_components_sum_to_start(self):
        rng = np.random.default_rng(17)
        for mat in random_matrices(seed=18, count=300):
            x0 = (float(rng.uniform(0.0, 100.0)), float(rng.uniform(0.0, 100.0)))
            sys_ = eigen(mat, x0)
            scale = max(1.0, abs(x0[0]), abs(x0[1]))
            assert abs(sys_.c1[0] + sys_.c2[0] - x0[0]) <= 1e-12 * scale
            assert abs(sys_.c1[1] + sys_.c2[1] - x0[1]) <= 1e-12 * scale

    def test_dominant_component_positive(self):
        # Interior haircuts, Y > 1, nontrivial start: c1 is strictly positive.
        rng = np.random.default_rng(19)
        for _ in range(200):
            mat = round_matrix_from_params(
                lambda_buy=float(rng.uniform(0.05, 0.95)),
                lambda_sell=float(rng.uniform(0.05, 0.95)),
                i=float(rng.uniform(1.0, 15.0)),
                j=float(rng.uniform(1.0, 15.0)),
                y_ratio=float(rng.uniform(1.01, 4.0)),
                sell_mean=float(rng.uniform(0.5, 120.0)),
            )
            sys_ = eigen(mat, (float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.1, 10.0))))
            assert sys_.c1[0] > 0.0 and sys_.c1[1] > 0.0

    def test_eigenvalue_ordering(self):
        for mat in random_matrices(seed=20, count=500):
            sys_ = eigen(mat, (1.0, 1.0))
            assert sys_.a1 >= sys_.a2
            assert sys_.a1 >= 1.0 - 1e-12
            assert sys_.a2 <= 1.0 + 1e-12
            assert sys_.a2 >= 0.0


class TestExpectedPortfolio:
    def test_zero_rounds_returns_start(self):
        sys_ = eigen(EX1_MATRIX, (4.0, 9.0))
        m, n = expected_portfolio(sys_, 0)
        assert m == pytest.approx(4.0, rel=1e-12)
        assert n == pytest.approx(9.0, rel=1e-12)

    def test_one_round_matches_direct_apply(self):
        x0 = (2.0, 7.0)
        sys_ = eigen(EX1_MATRIX, x0)
        want = EX1_MATRIX.apply(x0)
        got = expected_portfolio(sys_, 1)
        assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-9)

    def test_matches_matrix_power(self):
        rng = np.random.default_rng(21)
        for mat in random_matrices(seed=22, count=100):
            x0 = (float(rng.uniform(0.0, 20.0)), float(rng.uniform(0.0, 20.0)))
            sys_ = eigen(mat, x0)
            want = apply_power(mat, x0, 6)
            got = expected_portfolio(sys_, 6)
            scale = max(1.0, abs(want[0]), abs(want[1]))
            assert abs(got[0] - want[0]) <= 1e-9 * scale
            assert abs(got[1] - want[1]) <= 1e-9 * scale

    def test_continuous_at_integers(self):
        # Round matrices have det = lam1_i * lam2_j >= 0, hence a2 >= 0, and
        # a2**k is continuous in k; a negative base, which would need an
        # alternating-sign extension between integers, is refused.
        with pytest.raises(ValueError, match=">= 0"):
            EigenSystem(a1=1.5, a2=-0.8, c1=(1.0, 2.0), c2=(0.5, -1.0))

    def test_negative_rounds_rejected(self):
        sys_ = eigen(EX1_MATRIX, (1.0, 1.0))
        with pytest.raises(ValueError, match=">= 0"):
            expected_portfolio(sys_, -1)


class TestDepletion:
    def test_reference_config_rounds(self):
        sys_ = eigen(EX1_MATRIX, (0.0, 1.0))
        k = expected_depletion_rounds(sys_, reserves0=100.0, n0=1.0)
        assert k == pytest.approx(15.78, rel=2e-2)

    def test_reference_config_timesteps(self):
        sys_ = eigen(EX1_MATRIX, (0.0, 1.0))
        k = expected_depletion_rounds(sys_, reserves0=100.0, n0=1.0)
        t = rounds_to_timesteps(k, EX1_MATRIX.i, EX1_MATRIX.j)
        assert t == pytest.approx(227.0, rel=2e-2)

    def test_unit_ratio_never_depletes(self):
        # Dyadic parameters keep a1 = 1 exact; the band excludes n0 + R0.
        mat = round_matrix_from_params(lambda_buy=0.5, lambda_sell=0.5, i=2.0, j=2.0, y_ratio=1.0, sell_mean=1.0)
        sys_ = eigen(mat, (0.0, 10.0))
        assert expected_depletion_rounds(sys_, reserves0=5.0, n0=10.0) == math.inf

    def test_small_reserves_deplete_fast(self):
        sys_ = eigen(EX1_MATRIX, (0.0, 1.0))
        ks = [expected_depletion_rounds(sys_, reserves0=r, n0=1.0) for r in (1e-2, 1e-4, 1e-6)]
        assert ks[0] > ks[1] > ks[2] > 0.0
        assert ks[-1] < 1e-5

    def test_zero_reserves_is_immediate(self):
        sys_ = eigen(EX1_MATRIX, (0.0, 1.0))
        assert expected_depletion_rounds(sys_, reserves0=0.0, n0=1.0) == 0.0

    def test_negative_reserves_rejected(self):
        sys_ = eigen(EX1_MATRIX, (0.0, 1.0))
        with pytest.raises(ValueError, match=">= 0"):
            expected_depletion_rounds(sys_, reserves0=-1.0, n0=1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_holdings_rejected(self, value):
        sys_ = eigen(EX1_MATRIX, (0.0, 1.0))
        with pytest.raises(ValueError, match="reserves0"):
            expected_depletion_rounds(sys_, reserves0=value, n0=1.0)
        with pytest.raises(ValueError, match="n0"):
            expected_depletion_rounds(sys_, reserves0=1.0, n0=value)
        with pytest.raises(ValueError, match="n0 \\+ reserves0"):
            expected_depletion_rounds(sys_, reserves0=1e308, n0=1e308)

    def test_slowly_diverging_matrix_crosses_far_out(self):
        # a1 - 1 = 3.3e-8 puts the crossing near 1e8 rounds, far past any
        # round-by-round scan; it is found, and it is the first crossing.
        mat = slowly_diverging_matrix(3.3e-8)
        sys_ = eigen(mat, (0.0, 1.0))
        assert sys_.a1 == pytest.approx(1.0 + 3.3e-8, abs=1e-12)
        assert divergence_check(mat, (0.0, 1.0))
        k = expected_depletion_rounds(sys_, reserves0=100.0, n0=1.0)
        assert 1e7 < k < 1e9
        assert backing(sys_, k) >= 101.0 > backing(sys_, float(math.floor(k)))

    def test_bounded_trajectory_that_settles_below_target_never_depletes(self):
        # n_k = 10 - 5 * 0.5^k rises toward 10 but never reaches it, though
        # a float scan sees it there once 0.5^k drops below 10's rounding.
        sys_ = EigenSystem(a1=1.0, a2=0.5, c1=(0.0, 10.0), c2=(0.0, -5.0))
        assert backing(sys_, 60.0) == 10.0
        assert expected_depletion_rounds(sys_, reserves0=5.0, n0=5.0) == math.inf
        assert expected_depletion_rounds(sys_, reserves0=0.0, n0=10.0) == math.inf
        assert expected_depletion_rounds(sys_, reserves0=0.5, n0=10.0) == math.inf
        # a2 = -1, whose n_k would alternate forever, is no round matrix's.
        with pytest.raises(ValueError, match=">= 0"):
            EigenSystem(a1=1.0, a2=-1.0, c1=(0.0, -1.0), c2=(0.0, 1.5))

    def test_negative_base_and_overflow_crossings(self):
        # A negative base (a1 = -0.9) is refused as the system is built.
        # a1 = 2 with c1n < 0: n_k falls without bound, to -inf where 2**k
        # overflows, so it never crosses (it used to read +inf there).
        with pytest.raises(ValueError, match=">= 0"):
            EigenSystem(a1=-0.9, a2=0.0, c1=(0.0, -2.0), c2=(0.0, 0.0))
        falling = EigenSystem(a1=2.0, a2=0.5, c1=(0.0, -1.0), c2=(0.0, 3.0))
        assert backing(falling, 1024.0) == -math.inf
        assert scan_depletion_rounds(falling, 8.0, 2.0, 2000) is None
        assert expected_depletion_rounds(falling, 8.0, 2.0) == math.inf
        # A base just above 1 overflows past round 7e6; the backing was read
        # as crossing 101 there.
        slow = EigenSystem(a1=1.0001, a2=0.5, c1=(0.0, -0.70), c2=(0.0, 1.70))
        assert expected_depletion_rounds(slow, 100.0, 1.0) == math.inf

    def test_zero_coefficient_power_never_crosses(self):
        # 2**k overflows near round 1024, but c1n is 0: that term adds
        # nothing, and the backing 0.5**k only decays from 1 below 2.
        sys_ = EigenSystem(a1=2.0, a2=0.5, c1=(0.0, 0.0), c2=(0.0, 1.0))
        assert expected_depletion_rounds(sys_, reserves0=1.0, n0=1.0) == math.inf
        # A backing that flips sign each round needs a negative base, which
        # is refused as the system is built.
        with pytest.raises(ValueError, match=">= 0"):
            EigenSystem(a1=1.5, a2=-1.0, c1=(0.0, 0.0), c2=(0.0, -1.0))

    @pytest.mark.parametrize(
        "a1, a2, c1n, c2n, target",
        [
            (0.9, 0.5, 3.0, -2.0, 5.5),
            (1.0, 0.999, -1.0, 4.0, 4.5),
            (1.0, 0.5, 10.0, -5.0, 15.0 * (1.0 + 1e-15)),
            # A term near the subnormal range, whose power of a base this
            # close to 1 would underflow only after some 7e9 rounds.
            (0.9999999, 0.0, 1e-305, 0.0, 2e-305),
        ],
    )
    def test_bounded_band_below_target_never_depletes(self, a1, a2, c1n, c2n, target):
        # Both bases <= 1 keep every round's backing at or below
        # max(c1n, 0) + |c2n|, under the target: the search proves inf.
        assert target > max(c1n, 0.0) + abs(c2n)
        sys_ = EigenSystem(a1=a1, a2=a2, c1=(0.0, c1n), c2=(0.0, c2n))
        assert expected_depletion_rounds(sys_, reserves0=target, n0=0.0) == math.inf
        assert expected_depletion_rounds(sys_, reserves0=0.5 * target, n0=0.5 * target) == math.inf

    def test_subnormal_tail_below_target_is_not_scanned(self):
        # n_k = 1e-305 a1^k - 1e-305 0.5^k peaks below 1e-305, and its
        # terms would reach the subnormal range within a few thousand
        # rounds; a1's power underflows only near round 7e9.  The target is
        # inside c1 +/- |c2| but above the positive term, so no round
        # reaches it, and the answer comes without a round-by-round scan.
        sys_ = EigenSystem(a1=0.9999999, a2=0.5, c1=(0.0, 1e-305), c2=(0.0, -1e-305))
        assert expected_depletion_rounds(sys_, reserves0=1.5e-305, n0=0.0) == math.inf
        # Through analyze's path: a raw matrix with tiny holdings.
        mat = round_matrix_from_params(lambda_buy=0.5, lambda_sell=0.5, i=2.0, j=2.0, y_ratio=0.999999)
        assert expected_depletion_rounds(eigen(mat, (1e-305, 1e-305)), reserves0=1e-305, n0=1e-305) == math.inf

    def test_tail_peaking_below_target_is_not_scanned(self):
        # n_k = 1e-305 (a1^k - a2^k) rises to 2.5e-306 near round 6.9e6 and
        # decays; its terms are near the subnormal range from round 1, and
        # the bases would underflow only after ~7e9 rounds.  The target
        # 5e-306 is below the positive term but above the peak, so the answer
        # comes at once, without a scan of the rounds up to the peak.
        sys_ = EigenSystem(a1=0.9999999, a2=0.9999998, c1=(0.0, 1e-305), c2=(0.0, -1e-305))
        start = time.perf_counter()
        assert expected_depletion_rounds(sys_, reserves0=5e-306, n0=0.0) == math.inf
        assert time.perf_counter() - start < 1.0
        # A target on the rising side is found there: the float backing at
        # round 1000, rounded to the subnormal grid.  No round before the
        # answer's reaches it, and the answer's round does, up to a tie.
        target = backing(sys_, 1000.0)
        got = expected_depletion_rounds(sys_, reserves0=target, n0=0.0)
        assert 990.0 < got < 1010.0
        check_first_crossing(sys_, target, got)

    def test_hill_that_crosses_only_near_its_peak(self):
        # The same hill, with a target a hair under its peak: only rounds
        # within ~5e4 of the peak reach it, and no power of two does, so a
        # gallop from round 1 would step over them all.  The crossing is on
        # the rising side, where round K - 1 missing and K reaching is proof.
        a1, a2 = 0.9999999, 0.9999998
        sys_ = EigenSystem(a1=a1, a2=a2, c1=(0.0, 1e-305), c2=(0.0, -1e-305))
        peak = math.log(math.log(a2) / math.log(a1)) / (math.log(a1) - math.log(a2))
        target = backing(sys_, float(round(peak))) * (1.0 - 1e-5)
        got = expected_depletion_rounds(sys_, reserves0=target, n0=0.0)
        assert peak - 1e5 < got < peak - 1e4
        assert depletion_gap_states(sys_, target, math.ceil(got), first=math.ceil(got) - 1) == [-1, 1]

    @pytest.mark.parametrize(
        "a1, a2, c1n, c2n, reserves0, n0, want",
        [
            # 2^k overflows at round 1024, but 1e-300 2^k reaches 1e10 only
            # past round 1029 (the overflow round used to be the answer).
            (2.0, 0.5, 1e-300, 3.0, 1e10, 0.0, 1029.7977094150823),
            # Subnormal terms whose crossing is 7.4e6 rounds out (these used
            # to be scanned round by round, for 3-5 s, and the subnormal
            # rounding put the answer 7550 rounds early).
            (0.9999999, 0.0, -6.887e-321, -5.667e-321, 1.941e-320, -2.2683e-320, 7446669.985420684),
        ],
        ids=["overflowing-power", "subnormal-terms"],
    )
    def test_crossing_is_the_exact_closed_form(self, a1, a2, c1n, c2n, reserves0, n0, want):
        # want is the exact crossing of the given floats, from 50-digit
        # logs; the answer must be within the bisection's 1e-12 of it, and
        # come at once.
        sys_ = EigenSystem(a1=a1, a2=a2, c1=(0.0, c1n), c2=(0.0, c2n))
        got = expected_depletion_rounds(sys_, reserves0, n0)
        assert abs(got - want) <= 1e-12 * want
        assert min(timeit.repeat(lambda: expected_depletion_rounds(sys_, reserves0, n0), number=1, repeat=3)) < 0.05

    @pytest.mark.parametrize("y_ratio", [1e35, 1e36, 1e38])
    def test_overflow_round_right_after_the_prefix(self, y_ratio):
        # a1 = y_ratio, so a1^9 overflows a float.  At 1e35 and 1e36 the
        # tiny n0 crosses no round before round 9, which a search that
        # checked the first 8 rounds one by one and then evaluated a1^9 to
        # shape the rest used to raise on; at 1e38 round 8 already crosses.
        sys_ = eigen(round_matrix_from_params(i=2.0, j=2.0, y_ratio=y_ratio), (0.0, 1e-300))
        want = scan_depletion_rounds(sys_, 100.0, 1e-300, 20)
        assert expected_depletion_rounds(sys_, reserves0=100.0, n0=1e-300) == want
        if y_ratio == 1e35:
            assert want == 8.628571428576834

    # 300 examples, or the profile's count where that is higher (ci: 500).
    @settings(max_examples=max(300, settings.default.max_examples), deadline=None)
    # The target rounds to 0, which n_k = -0.125 0.75^k approaches from
    # below and never reaches (a float scan reached it at round 2582, where
    # n_k underflows to -0.0).
    @example(a1=0.75, a2=0.75, c1n=1.5, c2n=-1.625, at=114, nudge=1.0, reserves0=8.0)
    # Two bases one ulp apart whose logs round to one value; round 8 is a
    # tie.  A turning point found by dividing by the logs' difference used
    # to raise ZeroDivisionError.
    @example(a1=0.2, a2=0.20000000000000004, c1n=0.5, c2n=-1.0, at=8, nudge=1.0, reserves0=1.0)
    # A subnormal coefficient: the target is 1e-322 1.0001^247 rounded up
    # to 21 units of 2^-1074, which 20 units times 1.0001^k first reach
    # near round 487.9 (a float scan crossed at 246.9, by rounding).
    @example(a1=1.0001, a2=0.0, c1n=1e-322, c2n=0.0, at=247, nudge=1.0, reserves0=0.0)
    @given(
        a1=st.one_of(st.floats(0.2, 1.6), st.sampled_from([1.0, 1.0 + 1e-4])),
        a2=st.one_of(st.floats(0.0, 1.2), st.sampled_from([0.0, 0.999, 1.0])),
        c1n=st.floats(-5.0, 5.0),
        c2n=st.floats(-5.0, 5.0),
        at=st.integers(1, 3000),
        nudge=st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9]),
        reserves0=st.floats(0.0, 10.0),
    )
    def test_matches_unit_step_scan(self, a1, a2, c1n, c2n, at, nudge, reserves0):
        # Targets are the trajectory's own value at some round (nudged), so
        # most cases cross within a few thousand rounds: hills, valleys and
        # overflowing powers included.  The exact gap of every round up to
        # the answer's (or to 4000) decides.
        sys_ = EigenSystem(a1=a1, a2=a2, c1=(0.0, c1n), c2=(0.0, c2n))
        n0 = backing(sys_, float(at)) * nudge - reserves0
        assume(math.isfinite(n0))
        check_first_crossing(sys_, n0 + reserves0, expected_depletion_rounds(sys_, reserves0, n0))

    @settings(deadline=None)
    # Rounding used to leave a2 = -1.1e-16 here, where det M is exactly 0.
    @example(lambda_buy=0.0, lambda_sell=0.3125, i=2.0, j=1.5, y_ratio=2.0, sell_mean=1.0, m0=0.0, n0=1.0,
             reserves0=1.0)
    # A tie at round 2: M^2 (1, 0) has backing Y, the target, but c1n =
    # fl(1 / Y) puts the closed form's n_2 an ulp below it.  The float scan
    # crosses at 2.0, the exact closed form in round 3.
    @example(lambda_buy=0.0, lambda_sell=0.0, i=2.0, j=2.0, y_ratio=2.078125, sell_mean=1.0, m0=1.0, n0=0.0,
             reserves0=2.078125)
    # Subnormal holdings: 5e-324 1.5^k reaches 1e-323 (two units of 2^-1074)
    # at round 1.71, but the float scan's n_1 = 7.5e-324 rounds up to it.
    @example(lambda_buy=0.0, lambda_sell=0.0, i=2.0, j=2.0, y_ratio=1.5, sell_mean=1.0, m0=0.0, n0=5e-324,
             reserves0=5e-324)
    @given(
        lambda_buy=st.one_of(st.sampled_from([0.0, 1e-3, 0.3]), st.floats(0.0, 1.0)),
        lambda_sell=st.one_of(st.sampled_from([0.0, 1e-3, 0.3]), st.floats(0.0, 1.0)),
        i=st.floats(1.01, 40.0),
        j=st.floats(1.01, 40.0),
        y_ratio=st.floats(0.5, 3.0),
        sell_mean=st.floats(1.0, 200.0),
        m0=st.floats(0.0, 100.0),
        n0=st.floats(0.0, 100.0),
        reserves0=st.floats(0.0, 200.0),
    )
    def test_round_matrix_bases_nonnegative_and_match_scan(
        self, lambda_buy, lambda_sell, i, j, y_ratio, sell_mean, m0, n0, reserves0
    ):
        # Every round matrix has 0 <= a2 <= a1, and its depletion round is
        # the unit-step scan's, unless the two whole rounds differ where the
        # scan's rounding can decide: then the earlier one's exact gap is a
        # tie or within the subnormal grid's steps (scan_rounding_covers),
        # and the search's answer holds against every round's exact gap.
        mat = round_matrix_from_params(
            i=i, j=j, y_ratio=y_ratio, sell_mean=sell_mean, lambda_buy=lambda_buy, lambda_sell=lambda_sell
        )
        assume(discriminant(mat) > 1e-14)  # both haircut powers 1: no eigen split
        sys_ = eigen(mat, (m0, n0))
        assert sys_.a1 >= sys_.a2 >= 0.0
        want = scan_depletion_rounds(sys_, reserves0, n0, 4000)
        got = expected_depletion_rounds(sys_, reserves0, n0)
        first, scanned = math.ceil(min(got, 4001.0)), 4001 if want is None else math.ceil(want)
        if first != scanned:
            check_first_crossing(sys_, n0 + reserves0, got)
            assert scan_rounding_covers(sys_, n0 + reserves0, min(first, scanned))
        elif want is None:
            assert got > 4000.0
        else:
            assert got == want

    def test_monotone_in_y_ratio(self):
        ks = []
        for y in (1.05, 1.2, 1.5, 2.0, 3.0):
            mat = round_matrix_from_params(lambda_buy=0.3, lambda_sell=0.3, i=5.0, j=3.0, y_ratio=y, sell_mean=1.0)
            sys_ = eigen(mat, (0.0, 10.0))
            ks.append(expected_depletion_rounds(sys_, reserves0=100.0, n0=10.0))
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        assert ks[0] > ks[-1]


class TestRoundsToTimesteps:
    def test_zero_rounds_is_first_buy_phase(self):
        assert rounds_to_timesteps(0.0, 7.5, 3.25) == 7.5

    def test_single_unit_round(self):
        assert rounds_to_timesteps(1.0, 1.0, 1.0) == 3.0

    def test_reference_values(self):
        assert rounds_to_timesteps(15.78, 10.057, 3.6954) == pytest.approx(227.0, rel=2e-2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rounds_to_timesteps(-0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            rounds_to_timesteps(1.0, 0.0, 1.0)


class TestYRatioNormal:
    def test_point_mass_is_one(self):
        assert y_ratio_normal(NormalSpec(100.0, 0.0), 94.0, 113.0) == 1.0

    def test_matches_quadrature(self):
        dist = NormalSpec(100.0, 100.0)

        def norm_pdf(x):
            return math.exp(-0.5 * ((x - 100.0) / 10.0) ** 2) / (10.0 * math.sqrt(2.0 * math.pi))

        hi_num, _ = integrate.quad(lambda x: x * norm_pdf(x), 113.0, np.inf)
        hi_den, _ = integrate.quad(norm_pdf, 113.0, np.inf)
        lo_num, _ = integrate.quad(lambda x: x * norm_pdf(x), -np.inf, 94.0)
        lo_den, _ = integrate.quad(norm_pdf, -np.inf, 94.0)
        oracle = (hi_num / hi_den) / (lo_num / lo_den)
        assert y_ratio_normal(dist, 94.0, 113.0) == pytest.approx(oracle, rel=1e-6)

    def test_matches_conditional_mean_ratio(self):
        # The round matrix's Y, built from the truncated conditional means.
        dist = NormalSpec(100.0, 100.0)
        band = WaitingInterval(y1=94.0, y2=113.0, x1=94.0, x2=113.0, s1=0.009)
        ratio = build_round_matrix(dist, band, EX1_PARAMS).y_ratio
        assert y_ratio_normal(dist, 94.0, 113.0) == pytest.approx(ratio, rel=1e-6)

    def test_strictly_increasing_in_variance(self):
        ys = [y_ratio_normal(NormalSpec(100.0, s2), 94.0, 113.0) for s2 in (25.0, 50.0, 100.0, 200.0, 400.0)]
        assert all(a < b for a, b in zip(ys, ys[1:]))

    def test_nonpositive_denominator_error(self):
        with pytest.raises(ValueError, match="support_lo"):
            y_ratio_normal(NormalSpec(100.0, 2500.0, support_lo=1e-6, support_hi=400.0), 1e-3, 110.0)

    def test_empty_tail_error(self):
        with pytest.raises(ValueError, match="tail"):
            y_ratio_normal(NormalSpec(100.0, 100.0), -1000.0, 113.0)


class TestDivergenceCheck:
    def test_unit_y_ratio(self):
        mat = round_matrix_from_params(lambda_buy=0.5, lambda_sell=0.5, i=2.0, j=2.0, y_ratio=1.0)
        assert divergence_check(mat, (0.0, 10.0)) is False

    def test_unit_haircut_power(self):
        mat = round_matrix_from_params(lambda_buy=0.5, lambda_sell=1.0, i=2.0, j=2.0, y_ratio=1.4)
        assert divergence_check(mat, (0.0, 10.0)) is False

    def test_all_conditions_met(self):
        mat = round_matrix_from_params(lambda_buy=0.5, lambda_sell=0.5, i=2.0, j=2.0, y_ratio=1.2)
        assert divergence_check(mat, (0.0, 10.0)) is True

    def test_trivial_start(self):
        mat = round_matrix_from_params(lambda_buy=0.5, lambda_sell=0.5, i=2.0, j=2.0, y_ratio=1.2)
        assert divergence_check(mat, (0.0, 0.0)) is False

    def test_negative_start_rejected(self):
        mat = round_matrix_from_params(lambda_buy=0.5, lambda_sell=0.5, i=2.0, j=2.0, y_ratio=1.2)
        with pytest.raises(ValueError, match="nonnegative"):
            divergence_check(mat, (-1.0, 1.0))


class TestFees:
    MATS = [
        build_round_matrix(EX1_DIST, EX1_INTERVAL, EX1_PARAMS),
        build_round_matrix(EX1_DIST, EX1_INTERVAL, SpeculatorParams(delta=0.1, lambda_buy=0.3, lambda_sell=0.6)),
        round_matrix_from_params(lambda_buy=0.3, lambda_sell=0.3, i=5.0, j=3.0, y_ratio=1.4, sell_mean=90.0),
    ]

    @pytest.mark.parametrize("mat", MATS)
    def test_zero_fees_leave_the_matrix(self, mat):
        assert with_fees(mat, 0.0, 0.0) == mat
        assert repr(with_fees(mat, 0.0, 0.0)) == repr(mat)

    @pytest.mark.parametrize("mat", MATS)
    @pytest.mark.parametrize("eps_alpha, eps_beta", [(0.05, 0.0), (0.0, 0.05), (0.1, 0.2)])
    def test_fees_scale_b_c_and_y(self, mat, eps_alpha, eps_beta):
        got = with_fees(mat, eps_alpha, eps_beta)
        assert (got.A, got.i, got.j, got.lam1_i, got.lam2_j) == (mat.A, mat.i, mat.j, mat.lam1_i, mat.lam2_j)
        assert got.B == pytest.approx(mat.B / (1.0 + eps_alpha), rel=1e-14)
        assert got.C == pytest.approx(mat.C * (1.0 - eps_beta), rel=1e-14)
        f = (1.0 - eps_beta) / (1.0 + eps_alpha)
        assert got.y_ratio == pytest.approx(mat.y_ratio * f, rel=1e-15)
        y = got.y_ratio
        assert got.D == pytest.approx(mat.lam1_i + (1.0 - mat.lam1_i) * (1.0 - mat.lam2_j) * y, rel=1e-14)

    @pytest.mark.parametrize("eps_alpha, eps_beta", [(-0.01, 0.0), (math.inf, 0.0), (math.nan, 0.0),
                                                     (0.0, 1.0), (0.0, -0.01), (0.0, math.nan)])
    def test_bad_fees_rejected(self, eps_alpha, eps_beta):
        with pytest.raises(ValueError, match="^eps_(alpha|beta) must"):
            with_fees(self.MATS[0], eps_alpha, eps_beta)

    @pytest.mark.parametrize("sigma2, want", [(25.0, 0.0860), (100.0, 0.1451), (225.0, 0.2139)])
    def test_critical_fee_over_sigma2(self, sigma2, want):
        dist = NormalSpec(100.0, sigma2)
        mat = build_round_matrix(dist, waiting_interval(dist, EX1_PARAMS), EX1_PARAMS)
        assert critical_fee(mat, (0.0, 1.0)) == pytest.approx(want, abs=5e-5)

    @pytest.mark.parametrize("mat", MATS)
    def test_critical_fee_is_where_divergence_stops(self, mat):
        x0 = (0.0, 1.0)
        eps = critical_fee(mat, x0)
        y = mat.y_ratio
        assert eps == (y - 1.0) / (y + 1.0) > 0.0
        assert divergence_check(with_fees(mat, 0.99 * eps, 0.99 * eps), x0)
        assert not divergence_check(with_fees(mat, 1.01 * eps, 1.01 * eps), x0)

    def test_critical_fee_is_zero_without_divergence(self):
        bounded = round_matrix_from_params(lambda_buy=0.5, lambda_sell=0.5, i=2.0, j=2.0, y_ratio=0.9)
        assert critical_fee(bounded, (0.0, 1.0)) == 0.0
        assert critical_fee(self.MATS[0], (0.0, 0.0)) == 0.0


class TestClosedFormAgainstSimulation:
    def test_mean_backing_after_rounds(self):
        # Zero haircuts: each round is one all-in buy at the first price at or
        # above y2 and one all-out sell at the first price at or below y1, so
        # backing after k rounds is n0 times a product of conditional-tail
        # draws.  Waiting steps change nothing and are skipped.
        dist = NormalSpec(100.0, 4.0)
        params = SpeculatorParams(delta=0.02)
        interval = waiting_interval(dist, params)
        mat = build_round_matrix(dist, interval, params)
        sys_ = eigen(mat, (0.0, 10.0))
        k = 3
        closed_m, closed_n = expected_portfolio(sys_, k)
        assert closed_m == 0.0  # stablecoins are emptied by every sell phase

        rng = np.random.default_rng(20260821)
        trials = 10_000

        def tail_draws(lo, hi):
            out = np.empty(0)
            while out.size < trials:
                block = rng.normal(dist.mu, dist.sigma, size=8 * trials)
                out = np.concatenate([out, block[(block >= lo) & (block <= hi)]])
            return out[:trials]

        n = np.full(trials, 10.0)
        for _ in range(k):
            n = n * tail_draws(interval.y2, dist.support_hi)
            n = n / tail_draws(dist.support_lo, interval.y1)
        se = n.std(ddof=1) / math.sqrt(trials)
        assert abs(n.mean() - closed_n) <= 3.0 * se
