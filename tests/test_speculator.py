"""Trader-model tests.

The s1 optimisation and the waiting interval drive every downstream number,
so they get dense-grid oracles here in addition to the spot values.
"""

import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegstress.engine import AdaptiveSpec, RollingBand, SimConfig, run
from pegstress.prices import NormalSpec, TruncatedNormal
from pegstress.rounds import build_round_matrix
from pegstress.speculator import (
    NoTradeInterval,
    SpeculatorParams,
    WaitingInterval,
    _s1,
    waiting_interval,
)

EX1_DIST = NormalSpec(mu=100.0, sigma2=100.0)
EX1_PARAMS = SpeculatorParams(delta=0.1)


@functools.cache
def acceptance_intervals():
    """(dist, params, interval) for acceptance test 04's 1000 seeded draws,
    then its variance-collapse grid, in that order."""
    out = []
    rng = np.random.default_rng(2)
    while len(out) < 1_000:
        mu = rng.uniform(20.0, 200.0)
        sigma2 = rng.uniform(0.05, 0.3) * mu * mu / 4.0
        delta = rng.uniform(0.01, 0.3)
        dist, params = NormalSpec(mu=mu, sigma2=sigma2), SpeculatorParams(delta=delta)
        try:
            out.append((dist, params, waiting_interval(dist, params)))
        except NoTradeInterval:
            continue
    for sigma2 in (100.0, 25.0, 4.0, 1.0, 1e-2, 1e-4, 1e-6, 1e-8):
        dist, params = NormalSpec(mu=100.0, sigma2=sigma2), SpeculatorParams(delta=1e-8)
        out.append((dist, params, waiting_interval(dist, params)))
    return out


def brute_force_s1(dist, delta, points):
    """Dense-grid oracle for the s1 maximisation."""
    lo, hi = dist.support_lo, dist.support_hi
    xs = np.linspace(lo + (hi - lo) * 1e-9, hi, points)
    tn = TruncatedNormal(dist)
    best = -math.inf
    for x in xs:
        x, c = tn.at(float(x))
        prob = tn.prob_below(x, c)
        if prob <= 0.0:
            continue
        try:
            mean = tn.mean_below(x, c)
        except ValueError:
            continue  # conditioning mass below float resolution
        val = (1.0 - delta) ** (1.0 / prob) / mean
        best = max(best, val)
    return best


class TestStablecoinValue:
    def test_zero_delta_reaches_support_floor(self):
        # With no impatience the trader waits for the cheapest price, so a
        # stablecoin is worth 1/support_lo backing coins.
        dist = NormalSpec(mu=100.0, sigma2=100.0, support_lo=60.0, support_hi=140.0)
        s1 = _s1(TruncatedNormal(dist), 1.0)
        oracle = brute_force_s1(dist, 0.0, 200_001)
        # The supremum sits on the support edge where conditioning mass is at
        # float resolution, so the match is looser than in the interior case.
        assert s1 == pytest.approx(1.0 / 60.0, rel=1e-4)
        assert s1 == pytest.approx(oracle, rel=1e-5)

    def test_example_config_matches_dense_grid(self):
        s1 = waiting_interval(EX1_DIST, EX1_PARAMS).s1
        oracle = brute_force_s1(EX1_DIST, 0.1, 1_000_001)
        assert s1 == pytest.approx(oracle, rel=1e-6)

    def test_example_config_value(self):
        assert waiting_interval(EX1_DIST, EX1_PARAMS).s1 == pytest.approx(0.0090850, rel=1e-3)


class TestWaitingInterval:
    def test_example_interval(self):
        wi = waiting_interval(EX1_DIST, EX1_PARAMS)
        assert wi.y1 == pytest.approx(93.88, abs=0.05)
        assert wi.y2 == pytest.approx(112.83, abs=0.05)
        assert wi.x1 <= 1.0 / wi.s1 <= wi.x2

    def test_example_tail_masses(self):
        # 1/(1 - F(y2)) and 1/F(y1) are the published per-round trade counts.
        mat = build_round_matrix(EX1_DIST, waiting_interval(EX1_DIST, EX1_PARAMS), EX1_PARAMS)
        assert mat.i == pytest.approx(10.057, rel=5e-3)
        assert mat.j == pytest.approx(3.6954, rel=5e-3)

    def test_collapses_toward_point_mass(self):
        dist = NormalSpec(mu=100.0, sigma2=1e-8)
        wi = waiting_interval(dist, SpeculatorParams(delta=1e-7))
        assert wi.y1 == pytest.approx(100.0, abs=1e-2)
        assert wi.y2 == pytest.approx(100.0, abs=1e-2)
        assert wi.y1 <= wi.y2

    def test_delta_defaults_to_one_half(self):
        assert SpeculatorParams() == SpeculatorParams(0.5, 0.0, 0.0)

    def test_point_mass_has_no_interval(self):
        with pytest.raises(NoTradeInterval):
            waiting_interval(NormalSpec(mu=100.0, sigma2=0.0), EX1_PARAMS)

    def test_deep_discount_has_no_interval(self):
        # 1/s1 exits the 6-sigma support once the discount is punishing enough.
        with pytest.raises(NoTradeInterval, match="support"):
            waiting_interval(EX1_DIST, SpeculatorParams(delta=0.5))

    def test_independent_of_haircuts(self):
        a = waiting_interval(EX1_DIST, SpeculatorParams(delta=0.1, lambda_buy=0.0, lambda_sell=0.0))
        b = waiting_interval(EX1_DIST, SpeculatorParams(delta=0.1, lambda_buy=0.7, lambda_sell=0.3))
        assert (a.y1, a.y2, a.x1, a.x2, a.s1) == (b.y1, b.y2, b.x1, b.x2, b.s1)

    def test_ordering_on_random_draws(self):
        rng = np.random.default_rng(31)
        produced = 0
        for _ in range(200):
            mu = rng.uniform(20.0, 200.0)
            sigma2 = rng.uniform(0.05, 0.3) * mu * mu / 4.0
            delta = rng.uniform(0.01, 0.3)
            try:
                wi = waiting_interval(NormalSpec(mu=mu, sigma2=sigma2), SpeculatorParams(delta=delta))
            except NoTradeInterval:
                continue
            produced += 1
            assert wi.y1 <= wi.y2
            assert wi.x1 <= 1.0 / wi.s1 <= wi.x2
        assert produced > 100  # the draw box must actually exercise the code

    def test_interval_width_shrinks_with_variance(self):
        widths = []
        for sigma2 in (100.0, 25.0, 4.0, 1.0, 0.01, 1e-4, 1e-6, 1e-8):
            wi = waiting_interval(NormalSpec(mu=100.0, sigma2=sigma2), SpeculatorParams(delta=1e-8))
            widths.append(wi.y2 - wi.y1)
        assert all(a > b for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 2e-3

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            WaitingInterval(y1=101.0, y2=100.0, x1=99.0, x2=102.0, s1=0.01)

    def test_pinned_outputs_of_the_acceptance_draws(self):
        # repr((s1, y1, y2, x1, x2)) of every interval acceptance test 04
        # computes (its 1000 seeded draws, then its variance-collapse grid),
        # hashed in order.  The digest was recorded before the per-point
        # normal constants were shared (TruncatedNormal), so any change to
        # the float operations behind the interval shows here.
        digest = hashlib.sha256()
        for _, _, wi in acceptance_intervals():
            digest.update(repr((wi.s1, wi.y1, wi.y2, wi.x1, wi.x2)).encode())
        assert digest.hexdigest() == "8312fa28c7ab90cc30ba4332b22f1ad319eefa93f4429990c991aae554405c9e"

    def test_pinned_round_matrices_of_the_acceptance_draws(self):
        # repr of build_round_matrix on each of those intervals, in the same
        # order.  Recorded while the matrix was built from four one-point
        # normal evaluations, each with its own TruncatedNormal.
        digest = hashlib.sha256()
        for dist, params, wi in acceptance_intervals():
            digest.update(repr(build_round_matrix(dist, wi, params)).encode())
        assert digest.hexdigest() == "f2b6b94f07d4de5754d2e6f7f2b693dba6604d5c2d52db3e3ea3a5d700b1527d"

    def test_nonpositive_sell_mean_is_a_value_error(self):
        # Below x = 0 the conditional mean of a support reaching -4 is <= 0;
        # the trader's value divides by it.
        dist = NormalSpec(mu=0.0, sigma2=1.0, support_lo=-4.0, support_hi=4.0)
        with pytest.raises(ValueError, match="support_lo must be > 0"):
            waiting_interval(dist, SpeculatorParams(delta=0.1))
        with pytest.raises(ValueError, match="support_lo must be > 0"):
            _s1(TruncatedNormal(dist), 1.0 - 0.1)


# The trader's trade rule lives in the engine's step loop: these run one
# step of it at a constant price against the band BAND.
BAND = (94.0, 113.0)


def trade_at(price, m, n, params, eps_alpha=0.0):
    """The engine's trade at price from holdings (m stablecoins, n backing)."""
    cfg = SimConfig(
        source=NormalSpec(mu=price, sigma2=0.0),
        speculator=params,
        reserves0=1e9,
        n0=n,
        m0=m,
        eps_alpha=eps_alpha,
        max_steps=1,
        record_traces=True,
    )
    res = run(cfg, interval=BAND)
    return res.traces.delta[0], res


class TestDecide:
    def test_waits_inside(self):
        assert trade_at(100.0, 5.0, 5.0, EX1_PARAMS)[0] == 0.0

    def test_buys_above(self):
        assert trade_at(120.0, 0.0, 5.0, SpeculatorParams(delta=0.1))[0] == pytest.approx(600.0)
        # The mint fee comes out of the budget: (1 - lambda_buy) * p * n / (1 + eps_alpha).
        params = SpeculatorParams(delta=0.1, lambda_buy=0.25)
        assert trade_at(120.0, 0.0, 5.0, params, eps_alpha=0.02)[0] == 0.75 * 120.0 * 5.0 / 1.02

    def test_sells_below(self):
        params = SpeculatorParams(delta=0.1, lambda_sell=0.5)
        assert trade_at(80.0, 10.0, 0.0, params)[0] == pytest.approx(-5.0)

    def test_boundaries_wait(self):
        assert trade_at(94.0, 10.0, 10.0, EX1_PARAMS)[0] == 0.0
        assert trade_at(113.0, 10.0, 10.0, EX1_PARAMS)[0] == 0.0

    def test_full_haircut_is_inert(self):
        params = SpeculatorParams(delta=0.1, lambda_buy=1.0, lambda_sell=1.0)
        for price in (50.0, 100.0, 150.0):
            assert trade_at(price, 10.0, 10.0, params)[0] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        price=st.floats(min_value=1.0, max_value=300.0),
        m=st.floats(min_value=0.0, max_value=1e4),
        n=st.floats(min_value=0.0, max_value=1e4),
        lam_b=st.floats(min_value=0.0, max_value=1.0),
        lam_s=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_trade_stays_feasible(self, price, m, n, lam_b, lam_s):
        params = SpeculatorParams(delta=0.1, lambda_buy=lam_b, lambda_sell=lam_s)
        delta, res = trade_at(price, m, n, params)
        assert -(1.0 - lam_s) * m - 1e-12 <= delta <= (1.0 - lam_b) * price * n + 1e-9
        # Post-trade holdings stay componentwise nonnegative.
        assert res.final_m >= 0.0 and res.final_n >= 0.0


class TestAdaptiveInterval:
    # engine.RollingBand, the adaptive trader's band: mean -/+ c * std
    # (population std) of the prices before each step.
    @staticmethod
    def band_after(window_prices, c):
        prices = np.array([*window_prices, 0.0])  # the band of the step after them
        lo, hi = RollingBand(AdaptiveSpec(c=c, window=len(window_prices) + 1)).band(prices)
        return lo[-1], hi[-1]

    def test_constant_window(self):
        y1, y2 = self.band_after([42.0] * 10, c=3.5)
        assert y1 == y2 == 42.0

    def test_two_point_window(self):
        y1, y2 = self.band_after([90.0, 110.0], c=1.0)
        assert (y1, y2) == (pytest.approx(90.0), pytest.approx(110.0))

    def test_c_zero_degenerates_to_mean(self):
        y1, y2 = self.band_after([90.0, 110.0], c=0.0)
        assert y1 == y2 == pytest.approx(100.0)

    def test_short_window_waits(self):
        y1, y2 = self.band_after([100.0], c=3.5)
        assert y1 == -math.inf and y2 == math.inf


class TestParamValidation:
    def test_portfolio_nonnegative(self):
        with pytest.raises(ValueError, match="m0 must be finite and >= 0"):
            SimConfig(source=EX1_DIST, speculator=EX1_PARAMS, reserves0=1.0, n0=0.0, m0=-1.0)

    def test_delta_open_above(self):
        with pytest.raises(ValueError):
            SpeculatorParams(delta=1.0)

    @pytest.mark.parametrize("delta", [0.0, -0.1])
    def test_delta_open_below(self, delta):
        with pytest.raises(ValueError, match="delta must lie in"):
            SpeculatorParams(delta=delta)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            SpeculatorParams(delta=0.1, lambda_buy=1.5)
