"""Stability criteria and the omniscient-trader profit oracles.

The exhaustive schedule search is the ground truth here: the linear-time
ledger must match it exactly, and every closed-form threshold (L, the
symmetric fee) is checked against what the oracles actually extract.
run_omniscient_every_step, a copy of run_omniscient from before it settled
only its schedule's steps, is run_omniscient's oracle.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegstress.engine import SimConfig, run
from pegstress.mechanism import apply_trade, check_schedule
from pegstress.prices import NormalSpec, PriceSeries, WalkSpec, iid_blocks, random_walk
from pegstress.speculator import SpeculatorParams
from pegstress.theory import (
    L_criterion,
    OmniscientRun,
    _buy_factor,
    _sell_factor,
    TailSpread,
    converging_spread_series,
    greedy_threshold_profit,
    min_fee,
    run_omniscient,
    stability_label,
    tail_spread,
)

from oracles import optimal_profit_bruteforce, realized_profit_trace, sensitivity_check


def series(*prices):
    return PriceSeries(prices=tuple(float(p) for p in prices), source="test")


def alternating(hi, lo, cycles):
    return series(*([hi, lo] * cycles))


def random_series(rng, length):
    return series(*rng.uniform(0.5, 2.0, size=length))


class TestTailSpread:
    def test_two_point_alternation(self):
        spread = tail_spread(alternating(95.0, 105.0, 4), tail_fraction=0.5)
        assert spread.inv_liminf_est == 1.0 / 105.0
        assert spread.inv_limsup_est == 1.0 / 95.0

    def test_constant_series_has_zero_spread(self):
        spread = tail_spread(series(80.0, 80.0, 80.0, 80.0))
        assert spread.inv_liminf_est == spread.inv_limsup_est == 1.0 / 80.0

    def test_converging_sequence_estimates_tighten(self):
        # 1/p oscillates toward [1, 2] from the outside, so every finite
        # window overstates the spread, less so the longer the series.
        errors = []
        for pairs in (20, 200, 2000):
            spread = tail_spread(converging_spread_series(pairs, 1.0, 2.0))
            assert spread.inv_liminf_est < 1.0
            assert spread.inv_limsup_est > 2.0
            errors.append(
                max(1.0 - spread.inv_liminf_est, spread.inv_limsup_est - 2.0)
            )
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 1e-3

    def test_window_is_trailing(self):
        # First half is wild; only the calm tail should be read.
        spread = tail_spread(series(1.0, 1000.0, 100.0, 100.0), tail_fraction=0.5)
        assert spread.inv_liminf_est == spread.inv_limsup_est == 0.01

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match="tail_fraction"):
            tail_spread(series(1.0, 2.0), tail_fraction=fraction)

    def test_inverted_estimates_rejected(self):
        with pytest.raises(ValueError):
            TailSpread(inv_liminf_est=2.0, inv_limsup_est=1.0, tail_fraction=0.5)


class TestLCriterion:
    def test_one_third_fee_on_unit_spread_is_zero(self):
        spread = TailSpread(1.0, 2.0, 1.0)
        assert L_criterion(1.0 / 3.0, 1.0 / 3.0, spread) == pytest.approx(0.0, abs=1e-15)
        assert stability_label(1.0 / 3.0, 1.0 / 3.0, spread) == "boundary"

    def test_zero_fee_zero_spread_is_zero(self):
        spread = tail_spread(series(50.0, 50.0))
        assert L_criterion(0.0, 0.0, spread) == 0.0
        assert stability_label(0.0, 0.0, spread) == "boundary"

    def test_fee_above_threshold_is_stable(self):
        spread = tail_spread(alternating(95.0, 105.0, 5))
        assert L_criterion(0.06, 0.06, spread) > 0.0
        assert stability_label(0.06, 0.06, spread) == "stable"

    def test_fee_below_threshold_is_at_risk(self):
        spread = tail_spread(alternating(95.0, 105.0, 5))
        assert L_criterion(0.04, 0.04, spread) < 0.0
        assert stability_label(0.04, 0.04, spread) == "at-risk"

    def test_loose_tolerance_for_estimated_spreads(self):
        # The finite window reads the converging sequence's spread as wider
        # than [1, 2], so the exact-boundary fee classifies as at-risk under
        # the default tolerance; a tolerance sized to the estimation error
        # recovers the boundary label.
        spread = tail_spread(converging_spread_series(200, 1.0, 2.0))
        assert stability_label(1.0 / 3.0, 1.0 / 3.0, spread) == "at-risk"
        assert stability_label(1.0 / 3.0, 1.0 / 3.0, spread, boundary_tol=0.02) == "boundary"

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        # At 5% fees the two-point series sits on the boundary; a NaN or
        # negative tolerance used to label it stable.
        spread = tail_spread(alternating(95.0, 105.0, 10))
        assert stability_label(0.05, 0.05, spread) == "boundary"
        with pytest.raises(ValueError, match="^boundary_tol must be finite and >= 0$"):
            stability_label(0.05, 0.05, spread, boundary_tol=tol)


class TestMinFee:
    def test_two_point_example(self):
        spread = tail_spread(alternating(95.0, 105.0, 3))
        assert min_fee(spread) == pytest.approx(0.05, rel=1e-12)

    def test_exact_rational_arithmetic(self):
        # Estimates pass through untouched, so Fractions give the exact fee.
        spread = TailSpread(Fraction(1, 105), Fraction(1, 95), 0.5)
        assert min_fee(spread) == Fraction(1, 20)

    def test_zero_spread_needs_no_fee(self):
        assert min_fee(TailSpread(0.25, 0.25, 1.0)) == 0.0

    def test_unit_spread(self):
        assert min_fee(TailSpread(1.0, 2.0, 1.0)) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_degenerate_spread_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            min_fee(TailSpread(0.0, 0.0, 1.0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            lo = float(rng.uniform(0.1, 1.0))
            hi = lo + float(rng.uniform(0.0, 2.0))
            scale = float(rng.uniform(0.01, 100.0))
            base = min_fee(TailSpread(lo, hi, 1.0))
            scaled = min_fee(TailSpread(lo * scale, hi * scale, 1.0))
            assert scaled == pytest.approx(base, rel=1e-12)


class TestBruteforceOracle:
    def test_doubling_inverse_price(self):
        # 1/p goes 1 -> 2: buy the whole endowment, redeem at the high rate.
        s = optimal_profit_bruteforce(series(1.0, 0.5), 0.0, 0.0, n0=1.0)
        assert s == (0.0, 1.0)

    def test_constant_prices_yield_nothing(self):
        s = optimal_profit_bruteforce(series(*[70.0] * 8), 0.0, 0.0)
        assert s == (0.0,) * 8

    def test_fee_window_kills_marginal_trade(self):
        # (1 - 1/2) * 2 - (1 + 1/2) * 1 = 0: fees eat the doubling exactly.
        s = optimal_profit_bruteforce(series(1.0, 0.5), 0.5, 0.5, n0=1.0)
        assert s == (0.0, 0.0)

    def test_long_series_rejected(self):
        with pytest.raises(ValueError, match="too long"):
            optimal_profit_bruteforce(series(*range(1, 16)), 0.0, 0.0)

    def test_trace_is_nondecreasing(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            s = optimal_profit_bruteforce(random_series(rng, 9), 0.02, 0.03)
            assert all(a <= b for a, b in zip(s, s[1:]))
            assert s[0] >= 0.0

    def test_endowment_scales_trace(self):
        sr = series(1.0, 0.8, 1.3, 0.6)
        unit = optimal_profit_bruteforce(sr, 0.01, 0.01, n0=1.0)
        scaled = optimal_profit_bruteforce(sr, 0.01, 0.01, n0=7.0)
        for u, s in zip(unit, scaled):
            assert s == pytest.approx(7.0 * u, rel=1e-12, abs=1e-300)


class TestGreedyLedger:
    def test_matches_bruteforce_exactly(self):
        # Shared per-action factor expressions make the agreement bit-exact.
        rng = np.random.default_rng(33)
        for _ in range(1000):
            sr = random_series(rng, 10)
            ea = float(rng.uniform(0.0, 0.2))
            eb = float(rng.uniform(0.0, 0.2))
            assert greedy_threshold_profit(sr, ea, eb) == optimal_profit_bruteforce(sr, ea, eb)

    def test_constant_prices_yield_nothing(self):
        assert greedy_threshold_profit(series(*[42.0] * 50), 0.0, 0.0) == (0.0,) * 50

    def test_zero_fee_alternation_grows_without_bound(self):
        # Each 105 -> 95 cycle multiplies wealth by 105/95.
        trace = greedy_threshold_profit(alternating(105.0, 95.0, 60), 0.0, 0.0)
        cycle_profits = trace[1::2]
        assert all(a < b for a, b in zip(cycle_profits, cycle_profits[1:]))
        assert trace[-1] > 100.0
        assert trace[3] == pytest.approx((105.0 / 95.0) ** 2 - 1.0, rel=1e-12)

    def test_fee_monotonicity(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            sr = random_series(rng, 30)
            for grid, fixed_first in ((True, 0.03), (False, 0.03)):
                prev = None
                for eps in (0.0, 0.02, 0.05, 0.1):
                    ea, eb = (fixed_first, eps) if grid else (eps, fixed_first)
                    cur = greedy_threshold_profit(sr, ea, eb)
                    if prev is not None:
                        assert all(c <= p for c, p in zip(cur, prev))
                    prev = cur


class TestTheoremDirections:
    def test_fee_above_threshold_bounds_profit(self):
        trace = greedy_threshold_profit(alternating(105.0, 95.0, 500), 0.06, 0.06)
        assert trace == (0.0,) * 1000

    def test_fee_below_threshold_unbounded(self):
        trace = greedy_threshold_profit(alternating(105.0, 95.0, 2000), 0.04, 0.04)
        assert trace[-1] > 1e10
        # And still growing: the last full cycle strictly improves.
        assert trace[-1] > trace[-3]


class TestSensitivityCheck:
    def test_optimal_trader_has_k_one(self):
        s = greedy_threshold_profit(alternating(105.0, 95.0, 10), 0.0, 0.0)
        r = tuple(3.0 * v for v in s)
        assert sensitivity_check(r, s, n0=3.0) == 1.0

    def test_half_optimal_trader_has_k_two(self):
        s = greedy_threshold_profit(alternating(105.0, 95.0, 10), 0.0, 0.0)
        r = tuple(0.5 * v for v in s)
        assert sensitivity_check(r, s, n0=1.0) == pytest.approx(2.0, rel=1e-12)

    def test_idle_trader_is_not_sensitive(self):
        s = greedy_threshold_profit(alternating(105.0, 95.0, 10), 0.0, 0.0)
        assert sensitivity_check((0.0,) * len(s), s, n0=1.0) == math.inf

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            sensitivity_check((0.0, 0.0), (0.0,), n0=1.0)

    def test_simulated_trader_is_sensitive_on_some_path(self):
        # Run the analytic trader on i.i.d. paths and compare its realized
        # profit to the omniscient ledger on the same 200 prices.  Paths where
        # the oracle profits before the trader's first completed trade give
        # k = inf, so scan seeds until one certifies a finite k.
        dist = NormalSpec(100.0, 100.0)
        base = SimConfig(
            source=dist,
            speculator=SpeculatorParams(delta=0.1),
            reserves0=1e9,
            n0=1.0,
            max_steps=200,
            record_traces=True,
        )
        found = None
        for seed in range(50):
            res = run(base, seed=seed)
            prices = PriceSeries(prices=res.traces.p, source="iid", seed=seed)
            assert prices.prices == tuple(next(iid_blocks(dist, np.random.default_rng(seed)))[0][:200].tolist())
            r = realized_profit_trace(res.traces.p, res.traces.n, res.traces.m, 0.0, 1.0)
            s = greedy_threshold_profit(prices, 0.0, 0.0, n0=1.0)
            k = sensitivity_check(r, s, n0=1.0)
            if math.isfinite(k):
                found = (seed, k)
                break
        assert found is not None
        assert found[1] >= 1.0


class TestRealizedProfitTrace:
    def test_peak_liquidation_semantics(self):
        # Hold 2 stablecoins through a dip: the peak marks the best moment.
        prices = (100.0, 80.0, 120.0)
        n_seq = (1.0, 1.0, 1.0)
        m_seq = (2.0, 2.0, 2.0)
        trace = realized_profit_trace(prices, n_seq, m_seq, eps_beta=0.0, n0=1.0)
        assert trace[0] == pytest.approx(2.0 / 100.0)
        assert trace[1] == pytest.approx(2.0 / 80.0)
        assert trace[2] == pytest.approx(2.0 / 80.0)  # peak retained

    def test_redemption_fee_applies(self):
        trace = realized_profit_trace((100.0,), (0.0,), (100.0,), eps_beta=0.1, n0=0.5)
        assert trace[0] == pytest.approx(0.9 - 0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            realized_profit_trace((1.0, 2.0), (0.0,), (0.0,), 0.0, 1.0)


class TestOmniscientRun:
    def test_low_fee_depletes_reserves(self):
        sr = alternating(105.0, 95.0, 500)
        out = run_omniscient(sr, 0.04, 0.04, reserves0=100.0, n0=1.0)
        assert out.depleted is True
        assert out.r_min == 0.0
        assert out.depletion_step is not None
        assert out.depletion_step < 1000

    def test_threshold_fee_never_trades(self):
        sr = alternating(105.0, 95.0, 500)
        out = run_omniscient(sr, 0.06, 0.06, reserves0=100.0, n0=1.0)
        assert out.depleted is False
        assert out.r_min == 100.0
        assert out.final_backing == 1.0
        assert out.steps == 1000

    def test_depletion_stops_the_run(self):
        sr = alternating(105.0, 95.0, 500)
        out = run_omniscient(sr, 0.0, 0.0, reserves0=5.0, n0=1.0)
        assert out.depleted is True
        assert out.steps < 1000
        assert out.steps == out.depletion_step

    def test_pinned_outputs_on_seeded_walks(self):
        # repr of both oracles on three 5000-price walks at 1% fees; two keep
        # their reserves, one drains them at step 4560.  Recorded while
        # run_omniscient kept its own copy of the ledger pass and settled
        # step by step.
        digest = hashlib.sha256()
        for seed in (1, 2, 3):
            sr = random_walk(WalkSpec(0.0, 0.5, 100.0), 5_000, seed)
            digest.update(repr(greedy_threshold_profit(sr, 0.01, 0.01)).encode())
            digest.update(repr(run_omniscient(sr, 0.01, 0.01, reserves0=100.0)).encode())
        assert digest.hexdigest() == "6cb9d7861caa020756595b9aff1b07f6c1714bc64bbe4ce2f1587374235e207a"


def run_omniscient_every_step(series, eps_alpha, eps_beta, reserves0, n0=1.0):
    """run_omniscient as it was before it settled only its schedule: a flag
    per step for each ledger improvement, a backward pass that marks an
    action per step, then settlement visiting every step."""
    check_schedule(reserves0, eps_alpha, eps_beta)
    prices = series.prices
    t_len = len(prices)
    best_out, best_in = 1.0, 0.0
    out_from_sell = [False] * t_len
    in_from_buy = [False] * t_len
    for t, p in enumerate(prices):
        new_in = best_out * _buy_factor(p, eps_alpha)
        new_out = best_in * _sell_factor(p, eps_beta)
        if new_in > best_in:
            best_in = new_in
            in_from_buy[t] = True
        if new_out > best_out:
            best_out = new_out
            out_from_sell[t] = True
    actions = [0] * t_len  # +1 buy, -1 sell
    state_out = True
    for t in range(t_len - 1, -1, -1):
        if state_out:
            if out_from_sell[t]:
                actions[t] = -1
                state_out = False
        elif in_from_buy[t]:
            actions[t] = +1
            state_out = True
    reserves = r_min = reserves0
    backing = n0
    coins = 0.0
    for t, (p, act) in enumerate(zip(prices, actions), start=1):
        if act == +1 and backing > 0.0:
            delta = backing * _buy_factor(p, eps_alpha)
            reserves, flow = apply_trade(reserves, delta, p, eps_alpha, eps_beta)
            backing = max(backing + flow, 0.0)
            coins += delta
        elif act == -1 and coins > 0.0:
            reserves, flow = apply_trade(reserves, -coins, p, eps_alpha, eps_beta)
            backing += flow
            coins = 0.0
            if reserves == 0.0:
                return OmniscientRun(depleted=True, depletion_step=t, r_min=0.0, final_backing=backing, steps=t)
        r_min = min(r_min, reserves)
    return OmniscientRun(depleted=False, depletion_step=None, r_min=r_min, final_backing=backing, steps=t_len)


@st.composite
def oracle_series(draw):
    kind = draw(st.sampled_from(["uniform", "walk", "levels", "equal"]))
    length = draw(st.integers(1, 300))
    if kind == "uniform":
        return series(*draw(st.lists(st.floats(0.5, 2.0), min_size=length, max_size=length)))
    if kind == "walk":
        return random_walk(WalkSpec(0.0, draw(st.sampled_from([0.5, 2.0])), 100.0), length, draw(st.integers(0, 2**32)))
    if kind == "levels":
        return series(*draw(st.lists(st.sampled_from([95.0, 100.0, 105.0]), min_size=length, max_size=length)))
    return series(*[draw(st.floats(0.5, 200.0))] * length)


def outcome(oracle, *args):
    # repr tells -0.0 from 0.0, which == does not; an error must match too.
    try:
        return repr(oracle(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(deadline=None)
@given(
    sr=oracle_series(),
    eps_alpha=st.sampled_from([0.0, 0.01, 0.05]),
    eps_beta=st.sampled_from([0.0, 0.01, 0.05]),
    reserves0=st.sampled_from([0.0, 1e-3, 1.0, 100.0, 1e9]),
    n0=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
)
def test_run_omniscient_matches_the_every_step_oracle(sr, eps_alpha, eps_beta, reserves0, n0):
    # run_omniscient settles only the steps of its schedule; the oracle
    # visits each step.  Both must land on the same record, bit for bit.
    args = (sr, eps_alpha, eps_beta, reserves0, n0)
    assert outcome(run_omniscient, *args) == outcome(run_omniscient_every_step, *args)
