"""Engine kernel: pinned per-trial outputs and properties of the step loop.

The pinned digests are --out files recorded before the kernel skipped steps:
the reference and adaptive_walk ones on an engine that visited every step and
built a new MechanismState per trade, the other adaptive ones on an engine
that still visited every adaptive step, and the sigma_step sweep and the
m0/lambda_sell 1 run on one that visited every out-of-band step.  The json
digests were recorded while --out still held every record and wrote the
file with one json.dump.  The long-walk and 50k-price csv digests were
recorded while the walk and series generators still drew every block at 512
prices; those runs reach the generators' widest blocks.  The five-chunk
reference and walk-source json digests were recorded while every trial still
built its own generator (default_rng(seed)).  The point-mass, fee, adaptive
normal and sigma2 sweep digests were recorded while the i.i.d. generator
still drew every block at 512 prices and a point mass drew nothing; their
trials run past the first block.  Any change to the kernel or the writer
must keep them byte for byte.

An untraced run visits only the out-of-band steps on a side that holds
something; a traced run visits every step.  run_every_step, a copy of the
loop that visited every out-of-band step, is run's oracle.
"""

import dataclasses
import hashlib
import json
import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pegstress import engine, theory
from pegstress.cli import main
from pegstress.engine import AdaptiveSpec, RollingBand, SimConfig, SimResult, _analytic_band, monte_carlo, run
from pegstress.mechanism import apply_trade, check_schedule
from pegstress.prices import BLOCK, MAX_BLOCK, NormalSpec, PriceSeries, WalkSpec, derive_seed, price_blocks, random_walk
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
# Window longer than a 512-price block, so the window spans block edges.
ADAPTIVE_WINDOW_600 = dict(ADAPTIVE_WALK, adaptive={"c": 1.0, "window": 600})
# Long enough to reach the widest walk blocks, and to deplete inside one.
ADAPTIVE_WINDOW_600_LONG = dict(ADAPTIVE_WALK, adaptive={"c": 1.0, "window": 600}, run={"max_steps": 20000})
# Smallest window and a zero-width band: nearly every step is a candidate.
# Trial 43 clamps at the floor; from step 1842 its windows of two floor
# prices get the band [floor, floor], so it waits there and depletes at 1875.
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
# The history benchmark's sweep shape: an adaptive walk, c 1, window 168,
# three blocks per trial.
WALK_SWEEP = dict(
    ADAPTIVE_WALK,
    adaptive={"c": 1.0, "window": 168},
    run={"max_steps": 1500},
    sweep={"axis": "sigma_step", "values": [0.5, 1.0, 2.0, 4.0], "trials": 16},
)
# Both sides hold from the start, and the sell side never trades.
HOLDS_BOTH = dict(REFERENCE, m0=1.0, speculator={"delta": 0.1, "lambda_sell": 1.0}, run={"max_steps": 3000})


@pytest.mark.parametrize(
    "payload, digest",
    [
        (REFERENCE, "5d414d05a8927b08f5e43470556d28617896316f6351cf034032d98385f14e9d"),
        (ADAPTIVE_WALK, "960e8a700ecc729cd1c4e59d4b2896e8b9633bf3ecce9fe3e8f43e3942141adc"),
        (ADAPTIVE_WINDOW_600, "6e64d01492419acc198747eb2fe8f4121f0a2e26171697406ee2fb1db916da8d"),
        (ADAPTIVE_WINDOW_600_LONG, "8d195298cb6f2aac1dad2f52d3457087d2ad14908300c6fdfe51beb93d0ce010"),
        (ADAPTIVE_WINDOW_2_C_0, "f444999f20e26fafbab36ec29a2af33cda6e44a99f873f8a56e9541f01f1cd3c"),
        (ADAPTIVE_LITERAL, "f6d48be0857740d6ba6b107bda36deaf4482449824919ddc6c47cdefd26cfdd0"),
        (HOLDS_BOTH, "bab5480374989f7211af65aa280d293074d46042f9d2c473ebb6da704bb60da1"),
    ],
    ids=["reference", "adaptive_walk", "adaptive_window_600", "adaptive_window_600_long", "adaptive_window_2_c_0", "adaptive_literal", "holds_both"],
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


@pytest.mark.parametrize(
    "payload, trials, fmt, digest",
    [
        # Five chunks of generator states (4 x SEED_CHUNK 512, then 452 trials).
        (REFERENCE, "2500", "csv", "864b2783599368fd229a7079f7ae0358697e2a15b41ef88e692f4a3c152e863f"),
        (
            dict(ADAPTIVE_WALK, source=dict(ADAPTIVE_WALK["source"], sigma_step=2.0), run={"max_steps": 5000}),
            "200",
            "json",
            "51f8d0c46d5984f9c1a24cc8881a83c7ce11e126129cfa46e55629a0c5f09cc4",
        ),
    ],
    ids=["reference_five_seed_chunks", "walk_json"],
)
def test_bulk_seeded_out_is_pinned(tmp_path, capsys, payload, trials, fmt, digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / f"runs.{fmt}"
    argv = ["simulate", "--config", str(cfg), "--trials", trials, "--seed", "11", "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "payload, longest, digest",
    [
        (
            dict(REFERENCE, source={"kind": "normal", "mu": 100.0, "sigma2": 0.0}, run={"max_steps": 5000}),
            5000,
            "0c60d34d88a5c44043ffad701a20bd1e12e91ee87881e272af0459f416ce4fcf",
        ),
        (
            dict(REFERENCE, fees={"eps_alpha": 0.14, "eps_beta": 0.14}, run={"max_steps": 20000}),
            10871,
            "23fac0c01f5b3fc25d152a25dbbc8dbe1740ae522f060fc1154797bcc47daac5",
        ),
        (
            dict(REFERENCE, mode="adaptive", adaptive={"c": 2.5}, run={"max_steps": 20000}),
            4199,
            "6e19cacc644b1b2738614609e4285066ac537f0db075684424718e9f19312f28",
        ),
    ],
    ids=["point_mass", "fees_0_14", "adaptive_normal"],
)
def test_iid_block_schedule_out_is_pinned(tmp_path, capsys, payload, longest, digest):
    # Each run's longest trial reaches past the first 512-price block (the
    # adaptive one past the first three blocks' 1536 prices).
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--config", str(cfg), "--trials", "200", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert max(int(line.split(",")[9]) for line in out.read_text().splitlines()[1:]) == longest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "453e8c9e7148670ff74b125e1065c1bb4c832b53f22b4179b7bdd960075b268e"),
        ("json", "5d7c3d3087bb5eb67d0649465531b30a38b7a0610e7d9f76385e0e1daa0b2a21"),
    ],
)
def test_iid_sweep_out_is_pinned(tmp_path, capsys, fmt, digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(REFERENCE, sweep={"axis": "sigma2", "values": [25.0, 100.0, 400.0], "trials": 200})))
    out = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(out), "--format", fmt]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "1754408b99fc1948f78f3c152c3b46a7d9e617d89721c844921e35c91c2f91cb"),
        ("json", "34cb12905494e065a352ff4b80839f449d7ae54c2c7400f648febb7321c00e15"),
    ],
)
def test_csv_simulate_out_is_pinned(tmp_path, capsys, fmt, digest):
    # The history benchmark's simulate shape: a 50k-price csv series, one
    # trial per n0; no run depletes, so each walks the whole series.
    walk = random_walk(WalkSpec(0.0, 1.0, 2000.0), 50_000, 12345)
    series = tmp_path / "series.csv"
    series.write_text("timestamp,price\n" + "".join(f"{t},{p!r}\n" for t, p in enumerate(walk.prices)))
    payload = {
        "source": {"kind": "csv", "path": str(series)}, "speculator": {"delta": 0.1}, "mode": "adaptive",
        "adaptive": {"c": 2.0, "window": 168}, "reserves0": 100.0, "n0_grid": [0.5, 1.0, 2.0, 4.0],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / f"runs.{fmt}"
    assert main(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out), "--format", fmt]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "aa1b73988d8f15f5ca42cd2b129d101aa143b26dd34cc6ff2b1e92e9569d4db3"),
        ("json", "c21b57df82b1a527a10375a6626c7a6316980e21fd7dc1d76d15dc9b25ea0b98"),
    ],
)
def test_walk_sweep_out_is_pinned(tmp_path, capsys, fmt, digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(WALK_SWEEP))
    out = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(out), "--format", fmt]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# properties of the step loop


@st.composite
def sim_configs(draw):
    kind = draw(st.sampled_from(["normal", "walk", "series"]))
    if kind == "normal":
        source = NormalSpec(100.0, draw(st.sampled_from([25.0, 100.0, 400.0])))
        mode = draw(st.sampled_from(["analytic", "adaptive"]))
    elif kind == "walk":
        source = WalkSpec(0.0, draw(st.sampled_from([0.5, 2.0])), 100.0)
        mode = "adaptive"
    else:
        # A literal series, which may end before max_steps.
        walk = random_walk(WalkSpec(0.0, 2.0, 100.0), draw(st.sampled_from([1, 600, 1300])), draw(st.integers(0, 2**32)))
        source = PriceSeries(walk.prices, "literal")
        mode = "adaptive"
    # lambda 1.0: a side that holds but never trades.
    lam = st.sampled_from([0.0, 0.3, 1.0])
    eps = draw(st.sampled_from([0.0, 0.02]))
    return SimConfig(
        source=source,
        speculator=SpeculatorParams(
            delta=draw(st.sampled_from([0.05, 0.1, 0.3])), lambda_buy=draw(lam), lambda_sell=draw(lam)
        ),
        reserves0=draw(st.sampled_from([5.0, 30.0, 100.0])),
        n0=draw(st.sampled_from([0.5, 1.0, 4.0])),
        m0=draw(st.sampled_from([0.0, 0.0, 1.0, 20.0])),
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


def run_every_step(config, seed, interval=None):
    """run's loop as it was before it jumped: it visits every out-of-band
    step, whatever the trader holds.  Untraced record only."""
    adaptive = interval is None and config.resolved_mode() == "adaptive"
    if adaptive:
        window = RollingBand(config.adaptive)
    else:
        lo, hi = _analytic_band(config) if interval is None else interval
    spec, ea, eb = config.speculator, config.eps_alpha, config.eps_beta
    reserves = r_min = config.reserves0
    m, n = config.m0, config.n0
    rounds, last_dir, steps, depletion_step = 0, -1, 0, None
    clamp_count = 0
    for prices, clamped in price_blocks(config.source, np.random.default_rng(seed)):
        block = prices[: config.max_steps - steps]
        if adaptive:
            lo, hi = window.band(block)
        idx = np.flatnonzero((block > hi) | (block < lo))
        bands = zip(lo[idx].tolist(), hi[idx].tolist()) if adaptive else repeat((lo, hi))
        for t, p, (y1, y2) in zip((idx + (steps + 1)).tolist(), block[idx].tolist(), bands):
            delta = 0.0
            if p > y2 and n > 0.0:
                delta = (1.0 - spec.lambda_buy) * p * n / (1.0 + ea)
            elif p < y1 and m > 0.0:
                delta = -((1.0 - spec.lambda_sell) * m)
            if delta != 0.0:
                reserves, flow = apply_trade(reserves, delta, p, ea, eb)
                m, n = max(m + delta, 0.0), max(n + flow, 0.0)
                if delta < 0.0 and last_dir > 0:
                    rounds += 1
                last_dir = 1 if delta > 0.0 else -1
                r_min = min(r_min, reserves)
            if reserves == 0.0:
                depletion_step = t
                break
        used = len(block) if depletion_step is None else depletion_step - steps
        if clamped is not None:
            clamp_count += int(clamped[:used].sum())
        steps += used
        if depletion_step is not None or steps == config.max_steps:
            break
    return SimResult(
        depleted=depletion_step is not None, depletion_step=depletion_step, rounds=rounds, r_min=r_min,
        final_m=m, final_n=n, steps=steps, clamp_count=clamp_count, seed=seed,
    )


REFERENCE_CONFIG = SimConfig(
    source=NormalSpec(100.0, 100.0), speculator=SpeculatorParams(delta=0.1), reserves0=100.0, n0=1.0
)
# Explicit bands, which hold in any mode; (101, 99) and (105, 95) are
# inverted, so a price between them is on both sides.
_bands = st.tuples(st.sampled_from([90.0, 95.0, 99.0, 101.0, 105.0]), st.sampled_from([95.0, 99.0, 101.0, 110.0]))


@settings(deadline=None)
@given(cfg=sim_configs(), seed=st.integers(0, 2**32), interval=st.none() | _bands)
@example(cfg=REFERENCE_CONFIG, seed=0, interval=(101.0, 99.0))
@example(cfg=dataclasses.replace(REFERENCE_CONFIG, m0=1.0), seed=0, interval=(105.0, 95.0))
def test_run_matches_the_every_step_oracle(cfg, seed, interval):
    # The run jumps over the steps on a side that holds nothing; the oracle
    # visits each one.  Both must land on the same record, bit for bit.
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(run(cfg, seed=seed, interval=interval)) == repr(run_every_step(cfg, seed, interval))


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
    # A traced run visits every step and never jumps; an untraced run visits
    # only the out-of-band steps on a side that holds something.  Both must
    # land on the same record.
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


def adaptive_interval(window, c):
    """RollingBand's oracle: [mean - c*std, mean + c*std] of the window in two
    passes (population std); fewer than 2 prices give (-inf, +inf)."""
    values = list(window)
    if len(values) < 2:
        return (-math.inf, math.inf)
    mean = sum(values) / len(values)
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    return (mean - c * std, mean + c * std)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    sigma=st.sampled_from([0.5, 1.0, 30.0]),
    window=st.sampled_from([2, 3, 168, 511, 512, 513, 1200]),
    c=st.sampled_from([1.0, 3.5]),
)
# This walk sits on its floor at step 90322, where windows 2 and 3 hold only
# floor prices; their band's sums used to round the mean 5.9e-14 off.
@example(seed=1227, sigma=30.0, window=2, c=1.0)
@example(seed=1227, sigma=30.0, window=3, c=1.0)
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


@pytest.mark.parametrize("window, flat_windows", [(2, 32), (3, 15)])
def test_all_floor_windows_get_the_floor_band(window, flat_windows):
    # A walk on its floor: a window of floor prices has the band [floor,
    # floor], so the trader waits there.  Its sums are of prices less the
    # segment's first price, far above the floor, and rounded the band's top
    # edge below the floor at 24 of these 32 steps (window 2) and 14 of 15
    # (window 3); the band is now the repeated price itself.
    walk = WalkSpec(0.0, 30.0, 3e4)
    prices = np.array(random_walk(walk, 200_000, 1227).prices)
    band = RollingBand(AdaptiveSpec(c=1.0, window=window))
    lo, hi = zip(*(band.band(prices[s : s + BLOCK]) for s in range(0, len(prices), BLOCK)))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    # Floor prices in the window before step t: entry t - window of the count.
    on_floor = np.convolve(prices == walk.floor, np.ones(window, dtype=int), "valid")
    steps = np.flatnonzero(on_floor[:-1] == window) + window
    assert len(steps) == flat_windows
    assert (lo[steps] == walk.floor).all() and (hi[steps] == walk.floor).all()


@settings(deadline=None)
@given(
    kind=st.sampled_from(["walk", "series"]),
    seed=st.integers(0, 2**32),
    sigma=st.sampled_from([0.5, 2.0, 30.0]),
    window=st.sampled_from([2, 3, 168, 511, 512, 513, 1200]),
    c=st.sampled_from([0.0, 1.0, 3.5]),
    length=st.integers(20_000, 22_000),
)
def test_band_layout_matches_512_blocks(kind, seed, sigma, window, c, length):
    # The generators' blocks grow to MAX_BLOCK; RollingBand cuts each into
    # BLOCK-price segments from its first price.  Those fall where 512-price
    # blocks would start (after a walk's [p0] block), so the bands must be
    # the same floats as band() called once per 512 prices.  The last block
    # is cut short, as run cuts it at max_steps; at window 1200 a pass holds
    # seven segments, so a widest block takes two passes.
    walk = WalkSpec(0.0, sigma, 100.0)  # sigma 30 clamps at the floor
    source = walk if kind == "walk" else random_walk(walk, length, seed)
    blocks, taken = [], 0
    for prices, _ in price_blocks(source, np.random.default_rng(seed)):
        blocks.append(prices[: length - taken])
        taken += len(blocks[-1])
        if taken == length:
            break
    assert max(map(len, blocks)) == MAX_BLOCK > len(blocks[-1])
    path = np.concatenate(blocks)
    head = len(blocks[0]) % BLOCK  # a walk's [p0] block
    grid = [path[:head]] * bool(head) + [path[s : s + BLOCK] for s in range(head, length, BLOCK)]
    spec = AdaptiveSpec(c=c, window=window)
    wide, narrow = RollingBand(spec), RollingBand(spec)
    lo, hi = map(np.concatenate, zip(*map(wide.band, blocks)))
    ref_lo, ref_hi = map(np.concatenate, zip(*map(narrow.band, grid)))
    assert (lo[:2] == -math.inf).all() and (hi[:2] == math.inf).all()
    assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)


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
    if buy:
        cost = qty * ((1.0 + eps_alpha) / p)
        expected = (reserves + cost, -cost)
        delta = qty
    else:
        payout = min(qty * (1.0 - eps_beta) / p, reserves)
        expected = (reserves - payout, payout)
        delta = -qty
    got = apply_trade(reserves, delta, p, eps_alpha, eps_beta)
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_settle_keeps_the_state_checks():
    with pytest.raises(ValueError, match="price"):
        apply_trade(1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="reserves"):
        apply_trade(1.0, 1e308, 1e-10, 0.0, 0.0)
    with pytest.raises(ValueError, match="reserves"):
        apply_trade(math.nan, -1.0, 1.0, 0.0, 0.0)
    assert apply_trade(0.5, -10.0, 1.0, 0.0, 0.0) == (0.0, 0.5)  # payout capped at the reserves


def test_every_settlement_goes_through_the_traced_name(monkeypatch):
    # The benchmark's tracer counts settlements by replacing engine.apply_trade
    # and theory.apply_trade; both loops must look the function up there.
    calls = []

    def counted(reserves, delta, p, eps_alpha, eps_beta):
        out = apply_trade(reserves, delta, p, eps_alpha, eps_beta)
        calls.append((reserves, delta, out))
        return out

    monkeypatch.setattr(engine, "apply_trade", counted)
    monkeypatch.setattr(theory, "apply_trade", counted)
    traced = run(dataclasses.replace(REFERENCE_CONFIG, record_traces=True), seed=7)
    trades = sum(delta != 0.0 for delta in traced.traces.delta)
    assert trades > 0 and len(calls) == trades
    calls.clear()
    run(REFERENCE_CONFIG, seed=7)
    assert len(calls) == trades

    calls.clear()
    res = run_omniscient(random_walk(WalkSpec(0.0, 2.0, 100.0), 5000, 3), 0.01, 0.01, 50.0)
    # Replaying the settlements seen gives the run's own outcome, so none
    # went around the name: buys and sells alternate from the first buy.
    assert calls
    reserves, backing = 50.0, 1.0
    for k, (before, delta, (reserves_out, flow)) in enumerate(calls):
        assert before == reserves and (delta > 0.0) == (k % 2 == 0)
        reserves = reserves_out
        backing = max(backing + flow, 0.0) if delta > 0.0 else backing + flow
    assert (backing, reserves == 0.0) == (res.final_backing, res.depleted)


@pytest.mark.parametrize(
    "reserves, eps_alpha, eps_beta",
    [(-1.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, -0.1, 0.0), (1.0, math.inf, 0.0), (1.0, 0.0, 1.0)],
)
def test_schedule_checks_guard_every_entry_point(reserves, eps_alpha, eps_beta):
    with pytest.raises(ValueError):
        check_schedule(reserves, eps_alpha, eps_beta)
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
