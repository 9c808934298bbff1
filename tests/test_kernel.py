"""Engine kernel: pinned per-trial outputs and properties of the step loop.

The pinned digests are --out CSVs recorded before the kernel skipped steps:
the reference and adaptive_walk ones on an engine that visited every step and
built a new MechanismState per trade, the other adaptive ones on an engine
that still visited every adaptive step.  The json digests were recorded while
--out still held every record and wrote the file with one json.dump.  Any
change to the kernel or the writer must keep them byte for byte.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegstress.cli import main
from pegstress.engine import AdaptiveSpec, RollingBand, SimConfig, monte_carlo, run
from pegstress.mechanism import MechanismState, apply_trade, check_schedule, mint_cost, redeem_payout, settle
from pegstress.prices import BLOCK, NormalSpec, PriceSeries, WalkSpec, derive_seed, random_walk
from pegstress.speculator import SpeculatorParams, adaptive_interval
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
# Window longer than a 512-price block, so the window spans block edges.
ADAPTIVE_WINDOW_600 = dict(ADAPTIVE_WALK, adaptive={"c": 1.0, "window": 600})
# Smallest window and a zero-width band: nearly every step is a candidate.
ADAPTIVE_WINDOW_2_C_0 = dict(ADAPTIVE_WALK, adaptive={"c": 0.0, "window": 2})
# A fixed series with fees and haircuts; depletion lands on both sides of
# the first block edge across the n0 grid.
ADAPTIVE_LITERAL = dict(
    ADAPTIVE_WALK,
    source={"kind": "literal", "prices": [50.0 + ((k * 7919) % 1009) / 100.0 for k in range(1200)]},
    speculator={"delta": 0.1, "lambda_buy": 0.3, "lambda_sell": 0.3},
    fees={"eps_alpha": 0.01, "eps_beta": 0.01},
    reserves0=1000.0,
    n0_grid=[0.5, 1.0, 4.0],
)


@pytest.mark.parametrize(
    "payload, digest",
    [
        (REFERENCE, "5d414d05a8927b08f5e43470556d28617896316f6351cf034032d98385f14e9d"),
        (ADAPTIVE_WALK, "960e8a700ecc729cd1c4e59d4b2896e8b9633bf3ecce9fe3e8f43e3942141adc"),
        (ADAPTIVE_WINDOW_600, "6e64d01492419acc198747eb2fe8f4121f0a2e26171697406ee2fb1db916da8d"),
        (ADAPTIVE_WINDOW_2_C_0, "d939e9684c6d70f45c8f4ee5683d2ec192bda3e2b75a52ad8ad9932f2c680deb"),
        (ADAPTIVE_LITERAL, "f6d48be0857740d6ba6b107bda36deaf4482449824919ddc6c47cdefd26cfdd0"),
    ],
    ids=["reference", "adaptive_walk", "adaptive_window_600", "adaptive_window_2_c_0", "adaptive_literal"],
)
def test_simulate_out_is_pinned(tmp_path, capsys, payload, digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--config", str(cfg), "--trials", "200", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "payload, flags, digest",
    [
        (
            dict(ADAPTIVE_WALK, n0_grid=[0.5, 1.0, 4.0]),
            ["--trials", "200"],
            "5d7c2a4fc9af92bbe57fd554d3e0f4739999a224db2b599fda5102e1545134b1",
        ),
        (
            dict(REFERENCE, run={"record_traces": True}),
            ["--trials", "5", "--max-steps", "300"],
            "92ea5bc1b823111657a78630422f2e8889388ceb7ff4b683dc3871bfaa0820ee",
        ),
    ],
    ids=["adaptive_walk_n0_grid", "reference_traced"],
)
def test_simulate_json_out_is_pinned(tmp_path, capsys, payload, flags, digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "runs.json"
    argv = ["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out), "--format", "json", *flags]
    assert main(argv) == 0
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
        adaptive=AdaptiveSpec(
            c=draw(st.sampled_from([0.0, 1.0, 3.5])),
            window=draw(st.sampled_from([2, 168, 511, 512, 513, 1200])),
        ),
        max_steps=draw(st.integers(1, 1500)),
        master_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=25, deadline=None)
@given(cfg=sim_configs(), trials=st.integers(1, 3))
def test_trial_record_ignores_batch_size(cfg, trials):
    small, big = [], []
    monte_carlo(cfg, trials, sink=lambda idx, res: small.append(res))
    monte_carlo(cfg, 4 * trials, sink=lambda idx, res: big.append(res))
    assert big[:trials] == small
    for k, res in enumerate(small):
        assert res == run(cfg, seed=derive_seed(cfg.master_seed, k))


@settings(max_examples=40, deadline=None)
@given(cfg=sim_configs(), seed=st.integers(0, 2**32))
def test_traced_run_gives_the_same_record(cfg, seed):
    # A traced run visits every step; an untraced run skips the steps inside
    # the band.  Both must land on the same record.
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


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    sigma=st.sampled_from([0.5, 1.0, 30.0]),
    window=st.sampled_from([2, 3, 168, 511, 512, 513, 1200]),
    c=st.sampled_from([1.0, 3.5]),
)
def test_rolling_band_matches_adaptive_interval(seed, sigma, window, c):
    # The band's sums are of prices less the block's first price and start
    # afresh each block, so their rounding follows the block's spread, not
    # the price level or the path length: over 200k steps from a price of
    # 3e4 the variance stays within 1e-12 * mean**2 of the two-pass variance
    # even where the walk has fallen far below its start (measured: under
    # 1e-16 for windows 2..600, band edges within 3e-11 relative).
    prices = random_walk(WalkSpec(0.0, sigma, 3e4), 200_000, seed).prices
    band = RollingBand(AdaptiveSpec(c=c, window=window))
    lo, hi = zip(*(band.band(np.array(prices[s : s + BLOCK])) for s in range(0, len(prices), BLOCK)))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    assert (lo[:2] == -math.inf).all() and (hi[:2] == math.inf).all()
    for t in [*range(2, 600), *range(600, len(prices), 397)]:
        ref_lo, ref_hi = adaptive_interval(prices[max(0, t - window) : t], c)
        ref_mean, ref_std = (ref_lo + ref_hi) / 2, (ref_hi - ref_lo) / (2 * c)
        mean, std = (lo[t] + hi[t]) / 2, (hi[t] - lo[t]) / (2 * c)
        assert abs(mean - ref_mean) <= 1e-12 * ref_mean
        assert abs(std * std - ref_std * ref_std) <= 1e-12 * ref_mean * ref_mean


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
