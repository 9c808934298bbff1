"""Mint/redeem rule tests: quoting, reserve accounting, depletion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegstress.mechanism import MechanismState, apply_trade, settle


def make_state(reserves=10.0, eps_alpha=0.0, eps_beta=0.0):
    return MechanismState(reserves=reserves, eps_alpha=eps_alpha, eps_beta=eps_beta)


class TestQuotes:
    # settle's flow to the trader is minus the mint cost on a buy, the
    # redeem payout on a sell.
    def test_mint_no_fee(self):
        assert -settle(10.0, 1.0, 100.0, 0.0, 0.0)[1] == pytest.approx(0.01)

    def test_mint_with_fee(self):
        assert -settle(10.0, 1.0, 100.0, 0.02, 0.0)[1] == pytest.approx(0.0102)

    def test_mint_rejects_nonpositive_price(self):
        with pytest.raises(ValueError):
            settle(10.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            settle(10.0, 1.0, -1.0, 0.0, 0.0)

    def test_redeem_full_window(self):
        assert settle(10.0, -1.0, 100.0, 0.0, 0.0)[1] == pytest.approx(0.01)

    def test_redeem_capped_by_reserves(self):
        # Entire reserves paid out when the quote exceeds them.
        assert settle(0.005, -1.0, 100.0, 0.0, 0.0) == (0.0, 0.005)

    def test_redeem_with_fee(self):
        assert settle(10.0, -2.0, 100.0, 0.0, 0.1)[1] == pytest.approx(0.018)


class TestApplyTrade:
    def test_zero_is_identity(self):
        state = make_state(reserves=3.0)
        new, flow = apply_trade(state, 0.0, 100.0)
        assert new == state
        assert flow == 0.0

    def test_buy_credits_reserves(self):
        new, flow = apply_trade(make_state(reserves=1.0), 50.0, 100.0)
        assert new.reserves == pytest.approx(1.5)
        assert flow == pytest.approx(-0.5)  # speculator pays
        assert new.depleted_at is None

    def test_sell_at_depletion(self):
        new, flow = apply_trade(make_state(reserves=0.2), -100.0, 100.0, t=7)
        assert flow == pytest.approx(0.2)
        assert new.reserves == 0.0
        assert new.depleted_at == 7

    def test_depletion_timestamp_not_overwritten(self):
        state, _ = apply_trade(make_state(reserves=0.2), -100.0, 100.0, t=7)
        later, _ = apply_trade(state, -1.0, 100.0, t=9)
        assert later.depleted_at == 7
        assert later.reserves == 0.0

    def test_round_trip_reserve_change(self):
        # Buy at p_m then fully sell at p_n with symmetric fee eps: the net
        # reserve change per stablecoin is (1+eps)/p_m - (1-eps)/p_n.
        eps = 0.03
        p_m, p_n = 97.0, 104.0
        state = make_state(reserves=5.0, eps_alpha=eps, eps_beta=eps)
        state, _ = apply_trade(state, 1.0, p_m)
        state, _ = apply_trade(state, -1.0, p_n)
        expected = (1 + eps) / p_m - (1 - eps) / p_n
        assert state.reserves - 5.0 == pytest.approx(expected, rel=1e-12)


class TestStateValidation:
    def test_negative_reserves_rejected(self):
        with pytest.raises(ValueError):
            MechanismState(reserves=-1.0, eps_alpha=0.0, eps_beta=0.0)

    def test_eps_beta_below_one(self):
        with pytest.raises(ValueError):
            MechanismState(reserves=1.0, eps_alpha=0.0, eps_beta=1.0)

    def test_negative_fees_rejected(self):
        with pytest.raises(ValueError):
            MechanismState(reserves=1.0, eps_alpha=-0.1, eps_beta=0.0)


@settings(max_examples=300, deadline=None)
@given(
    deltas=st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=30),
    prices=st.lists(st.floats(min_value=0.5, max_value=500.0, allow_nan=False), min_size=30, max_size=30),
    eps_alpha=st.floats(min_value=0.0, max_value=0.5),
    eps_beta=st.floats(min_value=0.0, max_value=0.5),
)
def test_fuzz_conservation_and_nonnegativity(deltas, prices, eps_alpha, eps_beta):
    """Flows mirror reserve changes exactly and reserves never go negative."""
    state = make_state(reserves=2.0, eps_alpha=eps_alpha, eps_beta=eps_beta)
    for t, (delta, p) in enumerate(zip(deltas, prices)):
        before = state.reserves
        state, flow = apply_trade(state, delta, p, t=t)
        assert state.reserves >= 0.0
        # Backing that leaves the reserves is what the trader gains, up to
        # one rounding of the reserve update (ulp scales with the reserves).
        assert abs((before - state.reserves) - flow) <= 8e-15 * max(1.0, before, abs(flow))
        if state.reserves == 0.0:
            assert state.depleted_at is not None
