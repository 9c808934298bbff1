"""Mint/redeem rule tests: quoting, reserve accounting, depletion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegstress.mechanism import apply_trade, check_schedule


class TestQuotes:
    # apply_trade's flow to the trader is minus the mint cost on a buy, the
    # redeem payout on a sell.
    def test_mint_no_fee(self):
        assert -apply_trade(10.0, 1.0, 100.0, 0.0, 0.0)[1] == pytest.approx(0.01)

    def test_mint_with_fee(self):
        assert -apply_trade(10.0, 1.0, 100.0, 0.02, 0.0)[1] == pytest.approx(0.0102)

    def test_mint_rejects_nonpositive_price(self):
        with pytest.raises(ValueError):
            apply_trade(10.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            apply_trade(10.0, 1.0, -1.0, 0.0, 0.0)

    def test_redeem_full_window(self):
        assert apply_trade(10.0, -1.0, 100.0, 0.0, 0.0)[1] == pytest.approx(0.01)

    def test_redeem_capped_by_reserves(self):
        # Entire reserves paid out when the quote exceeds them.
        assert apply_trade(0.005, -1.0, 100.0, 0.0, 0.0) == (0.0, 0.005)

    def test_redeem_with_fee(self):
        assert apply_trade(10.0, -2.0, 100.0, 0.0, 0.1)[1] == pytest.approx(0.018)


class TestApplyTrade:
    def test_zero_is_identity(self):
        reserves, flow = apply_trade(3.0, 0.0, 100.0, 0.0, 0.0)
        assert reserves == 3.0
        assert flow == 0.0

    def test_buy_credits_reserves(self):
        reserves, flow = apply_trade(1.0, 50.0, 100.0, 0.0, 0.0)
        assert reserves == pytest.approx(1.5)
        assert flow == pytest.approx(-0.5)  # speculator pays

    def test_sell_at_depletion(self):
        reserves, flow = apply_trade(0.2, -100.0, 100.0, 0.0, 0.0)
        assert flow == pytest.approx(0.2)
        assert reserves == 0.0

    def test_depletion_timestamp_not_overwritten(self):
        # Once the reserves are empty, a later redemption gets nothing.
        reserves, _ = apply_trade(0.2, -100.0, 100.0, 0.0, 0.0)
        assert apply_trade(reserves, -1.0, 100.0, 0.0, 0.0) == (0.0, 0.0)

    def test_round_trip_reserve_change(self):
        # Buy at p_m then fully sell at p_n with symmetric fee eps: the net
        # reserve change per stablecoin is (1+eps)/p_m - (1-eps)/p_n.
        eps = 0.03
        p_m, p_n = 97.0, 104.0
        reserves, _ = apply_trade(5.0, 1.0, p_m, eps, eps)
        reserves, _ = apply_trade(reserves, -1.0, p_n, eps, eps)
        expected = (1 + eps) / p_m - (1 - eps) / p_n
        assert reserves - 5.0 == pytest.approx(expected, rel=1e-12)


class TestStateValidation:
    def test_negative_reserves_rejected(self):
        with pytest.raises(ValueError):
            check_schedule(-1.0, 0.0, 0.0)

    def test_eps_beta_below_one(self):
        with pytest.raises(ValueError):
            check_schedule(1.0, 0.0, 1.0)

    def test_negative_fees_rejected(self):
        with pytest.raises(ValueError):
            check_schedule(1.0, -0.1, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    deltas=st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=30),
    prices=st.lists(st.floats(min_value=0.5, max_value=500.0, allow_nan=False), min_size=30, max_size=30),
    eps_alpha=st.floats(min_value=0.0, max_value=0.5),
    eps_beta=st.floats(min_value=0.0, max_value=0.5),
)
def test_fuzz_conservation_and_nonnegativity(deltas, prices, eps_alpha, eps_beta):
    """Flows mirror reserve changes exactly and reserves never go negative."""
    reserves = 2.0
    for delta, p in zip(deltas, prices):
        before = reserves
        reserves, flow = apply_trade(reserves, delta, p, eps_alpha, eps_beta)
        assert reserves >= 0.0
        # Backing that leaves the reserves is what the trader gains, up to
        # one rounding of the reserve update (ulp scales with the reserves).
        assert abs((before - reserves) - flow) <= 8e-15 * max(1.0, before, abs(flow))
