"""Engine kernel: pinned per-trial outputs and properties of the step loop.

The pinned digests are the --out CSVs of the engine that visited every step
and built a new MechanismState per trade.  Any change to the kernel must keep
them byte for byte.
"""

import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegstress.cli import main
from pegstress.engine import SimConfig, monte_carlo, run
from pegstress.mechanism import MechanismState, apply_trade, check_schedule, mint_cost, redeem_payout, settle
from pegstress.prices import NormalSpec, PriceSeries, WalkSpec, derive_seed
from pegstress.speculator import SpeculatorParams
from pegstress.theory import run_omniscient

REFERENCE = {
    "source": {"kind": "normal", "mu": 100.0, "sigma2": 100.0},
    "speculator": {"delta": 0.1},
    "reserves0": 100.0,
    "n0": 1.0,
}
ADAPTIVE_WALK = {
    "source": {"kind": "walk", "mu_step": 0.0, "sigma_step": 1.0, "p0": 100.0},
    "speculator": {"delta": 0.1},
    "mode": "adaptive",
    "adaptive": {"c": 1.0},
    "reserves0": 100.0,
    "n0": 1.0,
    "run": {"max_steps": 2000},
}


@pytest.mark.parametrize(
    "payload, digest",
    [
        (REFERENCE, "5d414d05a8927b08f5e43470556d28617896316f6351cf034032d98385f14e9d"),
        (ADAPTIVE_WALK, "960e8a700ecc729cd1c4e59d4b2896e8b9633bf3ecce9fe3e8f43e3942141adc"),
    ],
    ids=["reference", "adaptive_walk"],
)
def test_simulate_out_is_pinned(tmp_path, capsys, payload, digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--config", str(cfg), "--trials", "200", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# properties of the step loop


@st.composite
def sim_configs(draw):
    if draw(st.booleans()):
        source = NormalSpec(100.0, draw(st.sampled_from([25.0, 100.0, 400.0])))
        mode = draw(st.sampled_from(["analytic", "adaptive"]))
    else:
        source = WalkSpec(0.0, draw(st.sampled_from([0.5, 2.0])), 100.0)
        mode = "adaptive"
    lam = draw(st.sampled_from([0.0, 0.3]))
    eps = draw(st.sampled_from([0.0, 0.02]))
    return SimConfig(
        source=source,
        speculator=SpeculatorParams(delta=draw(st.sampled_from([0.05, 0.1, 0.3])), lambda_buy=lam, lambda_sell=lam),
        reserves0=draw(st.sampled_from([5.0, 30.0, 100.0])),
        n0=draw(st.sampled_from([0.5, 1.0, 4.0])),
        eps_alpha=eps,
        eps_beta=eps,
        mode=mode,
        max_steps=draw(st.integers(1, 1500)),
        master_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=25, deadline=None)
@given(cfg=sim_configs(), trials=st.integers(1, 3))
def test_trial_record_ignores_batch_size(cfg, trials):
    small = monte_carlo(cfg, trials, keep_results=True).results
    big = monte_carlo(cfg, 4 * trials, keep_results=True).results
    assert big[:trials] == small
    for k, res in enumerate(small):
        assert res == run(cfg, seed=derive_seed(cfg.master_seed, k))


@settings(max_examples=40, deadline=None)
@given(cfg=sim_configs(), seed=st.integers(0, 2**32))
def test_traced_run_gives_the_same_record(cfg, seed):
    # A traced run visits every step; an untraced analytic run skips the
    # steps inside the band.  Both must land on the same record.
    traced = run(dataclasses.replace(cfg, record_traces=True), seed=seed)
    assert len(traced.traces.p) == traced.steps
    assert dataclasses.replace(traced, traces=None) == run(cfg, seed=seed)


@settings(max_examples=40, deadline=None)
@given(cfg=sim_configs(), seed=st.integers(0, 2**32))
def test_reserves_plus_backing_conserved_every_step(cfg, seed):
    res = run(dataclasses.replace(cfg, record_traces=True), seed=seed)
    total0 = cfg.reserves0 + cfg.n0
    for reserves, n in zip(res.traces.reserves, res.traces.n):
        assert reserves + n == pytest.approx(total0, rel=1e-9)


_prices = st.floats(1e-3, 1e5)
_reserves = st.floats(0.0, 1e6)
_eps_alpha = st.floats(0.0, 0.5)
_eps_beta = st.floats(0.0, 0.99)


@settings(max_examples=300)
@given(
    reserves=_reserves,
    qty=st.floats(1e-9, 1e4),
    buy=st.booleans(),
    p=_prices,
    eps_alpha=_eps_alpha,
    eps_beta=_eps_beta,
)
def test_settle_matches_the_quote_formulas_bit_for_bit(reserves, qty, buy, p, eps_alpha, eps_beta):
    # The formulas of the module docstring, in the float order the engine
    # that built a MechanismState per trade used.
    state = MechanismState(reserves=reserves, eps_alpha=eps_alpha, eps_beta=eps_beta)
    if buy:
        unit_cost = (1.0 + eps_alpha) / p
        assert mint_cost(state, p).hex() == unit_cost.hex()
        cost = qty * unit_cost
        expected = (reserves + cost, -cost)
        delta = qty
    else:
        payout = min(qty * (1.0 - eps_beta) / p, reserves)
        assert redeem_payout(state, qty, p).hex() == payout.hex()
        expected = (reserves - payout, payout)
        delta = -qty
    got = settle(reserves, delta, p, eps_alpha, eps_beta)
    assert [x.hex() for x in got] == [x.hex() for x in expected]
    new_state, flow = apply_trade(state, delta, p, t=3)
    assert (new_state.reserves, flow) == got
    assert new_state.depleted_at == (3 if not buy and got[0] == 0.0 else None)


def test_settle_keeps_the_state_checks():
    with pytest.raises(ValueError, match="price"):
        settle(1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="reserves"):
        settle(1.0, 1e308, 1e-10, 0.0, 0.0)
    with pytest.raises(ValueError, match="reserves"):
        settle(math.nan, -1.0, 1.0, 0.0, 0.0)
    assert settle(0.5, -10.0, 1.0, 0.0, 0.0) == (0.0, 0.5)  # payout capped at the reserves


@pytest.mark.parametrize(
    "reserves, eps_alpha, eps_beta",
    [(-1.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, -0.1, 0.0), (1.0, math.inf, 0.0), (1.0, 0.0, 1.0)],
)
def test_schedule_checks_guard_every_entry_point(reserves, eps_alpha, eps_beta):
    with pytest.raises(ValueError):
        check_schedule(reserves, eps_alpha, eps_beta)
    with pytest.raises(ValueError):
        MechanismState(reserves, eps_alpha, eps_beta)
    with pytest.raises(ValueError):
        SimConfig(
            source=NormalSpec(100.0, 100.0),
            speculator=SpeculatorParams(delta=0.1),
            reserves0=reserves,
            n0=1.0,
            eps_alpha=eps_alpha,
            eps_beta=eps_beta,
        )
    with pytest.raises(ValueError):
        run_omniscient(PriceSeries((1.0, 2.0, 1.0), "literal"), eps_alpha, eps_beta, reserves)
