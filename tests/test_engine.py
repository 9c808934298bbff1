"""Simulation driver: single runs, Monte Carlo aggregation, parameter sweeps.

Trend tests run at desk scale with fixed seeds; they assert orderings, not
point values, and treat runs that outlive the horizon as censored at it.
"""

import dataclasses
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegstress import engine
from pegstress.engine import (
    AdaptiveSpec,
    SEED_CHUNK,
    SWEEP_AXES,
    SimConfig,
    monte_carlo,
    run,
    sweep,
    sweep_configs,
)
from pegstress.prices import NormalSpec, PriceSeries, WalkSpec, derive_seed, random_walk
from pegstress.speculator import SpeculatorParams

EX1 = SimConfig(
    source=NormalSpec(100.0, 100.0),
    speculator=SpeculatorParams(delta=0.1),
    reserves0=100.0,
    n0=1.0,
)


def literal(*prices):
    return PriceSeries(prices=tuple(float(p) for p in prices), source="literal")


def censored_mean(summary, cap):
    done = (summary.mean_depletion_steps or 0.0) * summary.depleted_count
    return (done + cap * (summary.trials - summary.depleted_count)) / summary.trials


class TestSingleRun:
    def test_point_mass_prices_never_trade(self):
        cfg = dataclasses.replace(EX1, source=NormalSpec(100.0, 0.0), max_steps=500)
        res = run(cfg, seed=3)
        assert res.depleted is False
        assert res.r_min == cfg.reserves0
        assert res.final_n == cfg.n0 and res.final_m == cfg.m0
        assert res.rounds == 0

    def test_full_haircuts_never_trade(self):
        spec = SpeculatorParams(delta=0.1, lambda_buy=1.0, lambda_sell=1.0)
        cfg = dataclasses.replace(EX1, speculator=spec, max_steps=500)
        res = run(cfg, seed=3)
        assert res.r_min == cfg.reserves0
        assert res.final_n == cfg.n0

    def test_reference_config_depletes(self):
        res = run(EX1, seed=5)
        assert res.depleted is True
        assert res.r_min == 0.0
        assert res.steps == res.depletion_step
        assert res.depletion_step <= EX1.max_steps
        assert 5 <= res.rounds <= 40

    def test_deterministic_given_seed(self):
        assert run(EX1, seed=11) == run(EX1, seed=11)
        assert run(EX1, seed=11) != run(EX1, seed=12)

    def test_seed_defaults_to_master_seed(self):
        cfg = dataclasses.replace(EX1, master_seed=77)
        assert run(cfg) == run(cfg, seed=77)

    @pytest.mark.parametrize("eps", [0.0, 0.02])
    def test_backing_is_conserved(self, eps):
        # Every trade swaps backing between trader and reserves at the quoted
        # rate, so n_t + R_t never moves no matter the fee.
        cfg = dataclasses.replace(
            EX1, eps_alpha=eps, eps_beta=eps, record_traces=True, max_steps=2000
        )
        res = run(cfg, seed=9)
        total0 = cfg.n0 + cfg.reserves0
        assert any(d != 0.0 for d in res.traces.delta)
        for n_t, r_t in zip(res.traces.n, res.traces.reserves):
            assert abs(n_t + r_t - total0) <= 1e-9 * total0

    def test_depletion_halts_the_run(self):
        cfg = dataclasses.replace(EX1, record_traces=True)
        res = run(cfg, seed=5)
        assert res.depleted
        assert len(res.traces.p) == res.depletion_step
        assert res.traces.reserves[-1] == 0.0
        assert all(r > 0.0 for r in res.traces.reserves[:-1])

    def test_traces_off_by_default(self):
        assert run(EX1, seed=5).traces is None

    def test_constant_literal_series(self):
        cfg = dataclasses.replace(EX1, source=literal(*[100.0] * 50), max_steps=1000)
        res = run(cfg)
        assert res.steps == 50  # series exhausted before the horizon
        assert res.r_min == cfg.reserves0
        assert res.final_n == cfg.n0

    def test_adaptive_warmup_then_trade(self):
        # Band is unbounded until two prices are seen; the spike then buys.
        spec = SpeculatorParams(delta=0.1, lambda_buy=0.25)
        cfg = dataclasses.replace(
            EX1,
            source=literal(100.0, 100.0, 200.0, 50.0),
            speculator=spec,
            eps_alpha=0.02,
            eps_beta=0.01,
            adaptive=AdaptiveSpec(c=1.0),
            record_traces=True,
        )
        res = run(cfg)
        want_buy = 0.75 * 200.0 * cfg.n0 / 1.02
        assert res.traces.delta[0] == 0.0
        assert res.traces.delta[1] == 0.0
        assert res.traces.delta[2] == pytest.approx(want_buy, rel=1e-12)
        assert res.traces.delta[3] == pytest.approx(-want_buy, rel=1e-12)  # all-out sell
        assert res.rounds == 1
        assert res.final_n + res.traces.reserves[-1] == pytest.approx(101.0, rel=1e-12)

    def test_analytic_mode_needs_distribution(self):
        with pytest.raises(ValueError, match="analytic mode"):
            cfg = dataclasses.replace(EX1, source=literal(1.0, 2.0), mode="analytic")
            run(cfg)

    def test_analytic_mode_on_a_walk_fails_at_construction(self):
        walk = WalkSpec(mu_step=0.0, sigma_step=1.0, p0=100.0)
        with pytest.raises(ValueError, match="analytic mode requires a distribution source"):
            SimConfig(source=walk, speculator=EX1.speculator, reserves0=100.0, n0=1.0, mode="analytic")

    def test_explicit_band_applies_in_adaptive_mode(self):
        # A band passed to run holds in any mode, not only in analytic mode.
        cfg = dataclasses.replace(EX1, source=WalkSpec(mu_step=0.0, sigma_step=2.0, p0=100.0), max_steps=2000)
        assert cfg.resolved_mode() == "adaptive"
        banded = run(cfg, seed=3, interval=(99.0, 101.0))
        assert repr(banded) != repr(run(cfg, seed=3))
        assert banded == run(dataclasses.replace(cfg, adaptive=AdaptiveSpec(c=0.0)), seed=3, interval=(99.0, 101.0))

    def test_mode_resolution(self):
        assert EX1.resolved_mode() == "analytic"
        assert dataclasses.replace(EX1, source=literal(1.0)).resolved_mode() == "adaptive"
        walk = WalkSpec(mu_step=0.0, sigma_step=1.0, p0=100.0)
        assert dataclasses.replace(EX1, source=walk).resolved_mode() == "adaptive"
        assert dataclasses.replace(EX1, mode="adaptive").resolved_mode() == "adaptive"

    def test_walk_floor_clamps_are_counted(self):
        walk = WalkSpec(mu_step=-30.0, sigma_step=0.1, p0=100.0, floor=1.0)
        cfg = dataclasses.replace(EX1, source=walk, max_steps=20)
        res = run(cfg, seed=2)
        assert res.steps == 20
        assert res.clamp_count >= 10

    def test_series_run_counts_only_the_clamps_it_used(self):
        # The series keeps the count of its 2,000-price walk; a 3-step run
        # over it used no clamped price, as the same walk given as a
        # WalkSpec shows.
        walk = WalkSpec(mu_step=0.0, sigma_step=3.0, p0=5.0, floor=1.0)
        series = random_walk(walk, 2000, seed=7)
        assert series.clamp_count == 126
        over_series = run(dataclasses.replace(EX1, source=series, max_steps=3), seed=7)
        assert over_series.clamp_count == 0
        assert over_series == run(dataclasses.replace(EX1, source=walk, max_steps=3), seed=7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(reserves0=0.0),
            dict(reserves0=-5.0),
            dict(n0=-1.0),
            dict(m0=-0.5),
            dict(max_steps=0),
            dict(mode="oracle"),
            # A count that is not an integer fails here, not in the kernel.
            dict(max_steps=10.0),
            dict(max_steps=True),
            dict(max_steps="5"),
            dict(window=2.5),
            dict(window=True),
            dict(window=1),
            # A NaN c gave NaN bands, and a trader that never traded.
            dict(c=-1.0),
            dict(c=float("nan")),
            dict(c=float("inf")),
        ],
    )
    def test_config_validation(self, kwargs):
        (key,) = kwargs  # each error names its key
        with pytest.raises(ValueError, match=f"^{key} must"):
            if key in ("c", "window"):
                AdaptiveSpec(**kwargs)
            else:
                dataclasses.replace(EX1, **kwargs)

    def test_n0_defaults_to_one_backing_coin(self):
        cfg = SimConfig(EX1.source, EX1.speculator, 100.0)
        assert cfg.n0 == 1.0 and cfg == EX1

    @pytest.mark.parametrize("reserves0", [math.inf, math.nan])
    def test_reserves0_must_be_finite(self, reserves0):
        with pytest.raises(ValueError, match=r"^reserves0 must be finite and > 0$"):
            dataclasses.replace(EX1, reserves0=reserves0)

    @pytest.mark.parametrize("mode", ["analytic", "adaptive", "auto"])
    def test_normal_support_reaching_non_positive_prices_rejected(self, mode):
        # Such a config used to build, then fail in the run: "price must be
        # positive" (adaptive) or a non-positive conditional mean (analytic).
        source = NormalSpec(0.5, 1.0, -4.0, 4.0)
        with pytest.raises(ValueError, match="support_lo must be > 0"):
            dataclasses.replace(EX1, source=source, mode=mode)
        with pytest.raises(ValueError, match="support_lo must be > 0"):
            dataclasses.replace(EX1, source=dataclasses.replace(source, support_lo=0.0), mode=mode)

    def test_config_takes_numpy_integers(self):
        cfg = dataclasses.replace(EX1, max_steps=np.int64(3), adaptive=AdaptiveSpec(window=np.int32(2)))
        assert run(cfg).steps == 3


class TestMonteCarlo:
    def test_single_trial_equals_run(self):
        seen = []
        summary = monte_carlo(EX1, trials=1, sink=lambda idx, res: seen.append((idx, res)))
        direct = run(EX1, seed=derive_seed(EX1.master_seed, 0))
        assert seen == [(0, direct)]
        assert summary.fraction_depleted == float(direct.depleted)

    def test_point_mass_never_depletes(self):
        cfg = dataclasses.replace(EX1, source=NormalSpec(100.0, 0.0), max_steps=200)
        summary = monte_carlo(cfg, trials=20)
        assert summary.fraction_depleted == 0.0
        assert summary.mean_depletion_steps is None
        assert summary.r_min_mean == cfg.reserves0

    def test_reproducible(self):
        assert monte_carlo(EX1, trials=30) == monte_carlo(EX1, trials=30)

    def test_reference_config_depletion_times(self):
        summary = monte_carlo(EX1, trials=200)
        assert summary.fraction_depleted == 1.0
        assert 200.0 <= summary.mean_depletion_steps <= 250.0
        assert 25.0 <= summary.std_depletion_steps <= 60.0

    def test_streaming_aggregates_match_results(self):
        seen = []
        summary = monte_carlo(EX1, trials=50, sink=lambda idx, res: seen.append((idx, res)))
        assert [idx for idx, _ in seen] == list(range(50))  # once each, in trial order
        results = [res for _, res in seen]
        done = [r.depletion_step for r in results if r.depleted]
        assert summary.depleted_count == len(done)
        mean = sum(done) / len(done)
        var = sum((d - mean) ** 2 for d in done) / (len(done) - 1)
        assert summary.mean_depletion_steps == pytest.approx(mean, rel=1e-12)
        assert summary.std_depletion_steps == pytest.approx(math.sqrt(var), rel=1e-9)
        r_mins = [r.r_min for r in results]
        assert summary.r_min_mean == pytest.approx(sum(r_mins) / 50, rel=1e-12)
        assert summary.r_min_min == min(r_mins)
        assert summary.r_min_max == max(r_mins)

    def test_results_dropped_by_default(self):
        # The summary holds aggregates only; per-trial records reach a sink
        # and nothing else.
        summary = monte_carlo(EX1, trials=2)
        for field in dataclasses.fields(summary):
            assert isinstance(getattr(summary, field.name), (int, float, type(None))), field.name

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo(EX1, trials=0)

    def test_results_do_not_depend_on_seed_chunks(self):
        # Seeds' generator states are computed SEED_CHUNK trials at a time.
        def results(trials):
            seen = []
            monte_carlo(EX1, trials=trials, sink=lambda idx, res: seen.append(res))
            return seen

        longer = results(2 * SEED_CHUNK + 5)
        for trials in (SEED_CHUNK - 1, SEED_CHUNK, SEED_CHUNK + 1, 2 * SEED_CHUNK + 1):
            assert results(trials) == longer[:trials]
        for idx in (SEED_CHUNK - 1, SEED_CHUNK, 2 * SEED_CHUNK):
            assert longer[idx] == run(EX1, seed=derive_seed(EX1.master_seed, idx))

    def test_nested_monte_carlo_in_a_sink(self):
        # Each monte_carlo call reseeds its own generator, so a sink may run
        # another one without moving the outer trials' prices.
        walk = dataclasses.replace(EX1, source=WalkSpec(0.0, 1.0, 100.0), max_steps=600, master_seed=3)
        inner = []
        outer = []

        def sink(idx, res):
            inner.append(monte_carlo(walk, trials=3))
            outer.append(res)

        assert monte_carlo(EX1, trials=6, sink=sink) == monte_carlo(EX1, trials=6)
        assert outer == [run(EX1, seed=derive_seed(EX1.master_seed, idx)) for idx in range(6)]
        assert inner == [monte_carlo(walk, trials=3)] * 6

    def test_series_builds_no_generator(self, monkeypatch):
        cfg = dataclasses.replace(
            EX1, source=literal(*[95.0, 104.0, 96.0, 112.0] * 300), adaptive=AdaptiveSpec(c=0.5, window=8)
        )
        want = [run(cfg, seed=derive_seed(cfg.master_seed, idx)) for idx in range(3)]

        def refuse(*args):
            raise AssertionError("a series draws nothing")

        monkeypatch.setattr(engine, "seeded_generators", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        seen = []
        monte_carlo(cfg, trials=3, sink=lambda idx, res: seen.append(res))
        assert seen == want == [run(cfg, seed=res.seed) for res in want]
        assert want[0].rounds > 0

    @pytest.mark.parametrize("seed", [2**64, 2**70])
    def test_direct_run_takes_seeds_past_64_bits(self, seed):
        traced = run(dataclasses.replace(EX1, record_traces=True), seed=seed)
        want = np.random.default_rng(seed).normal(100.0, 10.0, traced.steps)
        assert traced.seed == seed and traced.steps > 100
        assert traced.traces.p == tuple(np.clip(want, EX1.source.support_lo, EX1.source.support_hi).tolist())


# A haircut and fee config whose trials end both ways within the horizon.
FEES = dataclasses.replace(
    EX1, speculator=SpeculatorParams(delta=0.1, lambda_buy=0.2, lambda_sell=0.1), eps_alpha=0.01,
    eps_beta=0.01, max_steps=300, master_seed=11,
)
# Each side of one, two and three chunks, and ten chunks.
TRIAL_COUNTS = (1, SEED_CHUNK - 1, SEED_CHUNK, SEED_CHUNK + 1, 2 * SEED_CHUNK, 2 * SEED_CHUNK + 1, 5000)


def on_cpus(monkeypatch, cpus):
    """Let monte_carlo see cpus CPUs; return the list each os.fork call appends to."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counted)
    return forks


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestForkedTrials:
    # Chunks of SEED_CHUNK trials go round-robin to the caller and to a
    # forked child per other CPU; one CPU runs them all in process.

    def collect(self, monkeypatch, cpus, config, trials):
        forks = on_cpus(monkeypatch, cpus)
        seen = []
        summary = monte_carlo(config, trials, sink=lambda idx, res: seen.append((idx, res)))
        assert no_child_left()
        return summary, seen, len(forks)

    @pytest.mark.parametrize(
        "trials, traced", [(n, False) for n in TRIAL_COUNTS] + [(n, True) for n in TRIAL_COUNTS[:6]]
    )
    def test_forked_matches_in_process(self, monkeypatch, trials, traced):
        config = dataclasses.replace(FEES, record_traces=traced, max_steps=20 if traced else FEES.max_steps)
        want, want_seen, forks = self.collect(monkeypatch, 1, config, trials)
        assert forks == 0
        assert [idx for idx, _ in want_seen] == list(range(trials))
        got, seen, forks = self.collect(monkeypatch, 3, config, trials)
        assert forks == min(2, -(-trials // SEED_CHUNK) - 1)
        assert got == want
        assert seen == want_seen
        if not traced and trials == 5000:
            assert 0 < want.depleted_count < trials and want.std_depletion_steps is not None

    def test_two_cpus_match_three(self, monkeypatch):
        got = self.collect(monkeypatch, 2, FEES, 2600)
        want = self.collect(monkeypatch, 3, FEES, 2600)
        assert got[:2] == want[:2] and (got[2], want[2]) == (1, 2)

    def test_child_error_reraises_with_its_message(self, monkeypatch):
        caller = os.getpid()
        bad = derive_seed(FEES.master_seed, SEED_CHUNK + 7)  # in the first child's chunk
        lone = engine.run

        def failing(config, seed, **kwargs):
            if seed == bad:
                raise ValueError(f"trial failed in {'a child' if os.getpid() != caller else 'the caller'}")
            return lone(config, seed=seed, **kwargs)

        monkeypatch.setattr(engine, "run", failing)
        on_cpus(monkeypatch, 2)
        seen = []
        with pytest.raises(ValueError, match="^trial failed in a child$"):
            monte_carlo(FEES, 3 * SEED_CHUNK, sink=lambda idx, res: seen.append(idx))
        assert seen == list(range(SEED_CHUNK))
        assert no_child_left()

    def test_child_that_dies_is_an_error(self, monkeypatch):
        caller = os.getpid()
        lone = engine.run

        def dying(config, seed, **kwargs):
            if os.getpid() != caller:
                os._exit(3)
            return lone(config, seed=seed, **kwargs)

        monkeypatch.setattr(engine, "run", dying)
        on_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=rf"exited before sending chunk \(0, {SEED_CHUNK}, {2 * SEED_CHUNK}\)$"):
            monte_carlo(FEES, 2 * SEED_CHUNK)
        assert no_child_left()

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    @pytest.mark.parametrize("at", [3, SEED_CHUNK + 3], ids=["caller_chunk", "child_chunk"])
    def test_sink_error_leaves_no_child(self, monkeypatch, error, at):
        def sink(idx, res):
            if idx == at:
                raise error("sink failed")

        on_cpus(monkeypatch, 3)
        with pytest.raises(error, match="sink failed") as caught:
            monte_carlo(FEES, 6 * SEED_CHUNK, sink=sink)
        # Reaped by monte_carlo itself, while the traceback still holds its
        # frame (and so its generator of results).
        assert no_child_left()
        assert caught.traceback

    def test_runs_in_process_while_a_thread_runs(self, monkeypatch):
        forks = on_cpus(monkeypatch, 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            summary = monte_carlo(FEES, 2 * SEED_CHUNK)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert summary == monte_carlo(FEES, 2 * SEED_CHUNK)
        assert len(forks) == 1


class TestMultiPointJobs:
    # A sweep's points are one job: three points of 600 trials are six
    # chunks, (point, start, stop), none across two points.
    VALUES = [0.5, 1.0, 2.0]
    TRIALS = 600

    def spy_chunks(self, monkeypatch):
        from pegstress import parallel
        dealt = []
        deal = parallel.run_chunks

        def spy(job, chunks):
            dealt.append(chunks)
            return deal(job, chunks)

        monkeypatch.setattr(parallel, "run_chunks", spy)
        return dealt

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_points_share_one_job(self, monkeypatch, cpus):
        # Each point alone, in process.
        want, want_seen = [], []
        for p, point in enumerate(sweep_configs(FEES, "n0", self.VALUES)):
            want.append(monte_carlo(point, self.TRIALS, sink=lambda idx, res, p=p: want_seen.append((p, idx, res))))
        dealt = self.spy_chunks(monkeypatch)
        forks = on_cpus(monkeypatch, cpus)
        seen = []
        got = sweep(FEES, "n0", self.VALUES, self.TRIALS, sink=lambda p, idx, res: seen.append((p, idx, res)))
        assert no_child_left()
        assert len(forks) == min(cpus, 6) - 1
        assert dealt == [[chunk for p in range(3) for chunk in ((p, 0, SEED_CHUNK), (p, SEED_CHUNK, self.TRIALS))]]
        assert got == tuple(want)
        assert seen == want_seen

    def test_child_error_in_the_second_point_reraises(self, monkeypatch):
        # On two CPUs the child runs chunks 1, 3 and 5: trial 520 of point 1
        # (n0 1.0) is in chunk 3.
        caller = os.getpid()
        bad = derive_seed(FEES.master_seed, SEED_CHUNK + 8)
        lone = engine.run

        def failing(config, seed, **kwargs):
            if seed == bad and config.n0 == 1.0:
                raise ValueError(f"trial failed in {'a child' if os.getpid() != caller else 'the caller'}")
            return lone(config, seed=seed, **kwargs)

        monkeypatch.setattr(engine, "run", failing)
        on_cpus(monkeypatch, 2)
        seen = []
        with pytest.raises(ValueError, match="^trial failed in a child$"):
            sweep(FEES, "n0", self.VALUES, self.TRIALS, sink=lambda p, idx, res: seen.append((p, idx)))
        assert seen == [(0, idx) for idx in range(self.TRIALS)] + [(1, idx) for idx in range(SEED_CHUNK)]
        assert no_child_left()

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_sink_error_in_a_later_point_leaves_no_child(self, monkeypatch, error):
        def sink(p, idx, res):
            if (p, idx) == (2, 3):
                raise error("sink failed")

        on_cpus(monkeypatch, 3)
        with pytest.raises(error, match="sink failed"):
            sweep(FEES, "n0", self.VALUES, self.TRIALS, sink=sink)
        assert no_child_left()


@st.composite
def seeding_cases(draw):
    """A config, a trial count and trial indices for the seeding property."""
    kind = draw(st.sampled_from(["normal", "point_mass", "walk"]))
    if kind == "walk":
        source, mode = WalkSpec(0.0, draw(st.sampled_from([0.5, 2.0])), 100.0), "adaptive"
    else:
        sigma2 = 0.0 if kind == "point_mass" else draw(st.sampled_from([25.0, 100.0, 400.0]))
        source, mode = NormalSpec(100.0, sigma2), draw(st.sampled_from(["analytic", "adaptive"]))
    config = SimConfig(
        source=source,
        speculator=SpeculatorParams(delta=draw(st.sampled_from([0.05, 0.1]))),
        reserves0=draw(st.sampled_from([5.0, 100.0])),
        n0=1.0,
        mode=mode,
        adaptive=AdaptiveSpec(c=draw(st.sampled_from([1.0, 3.5]))),
        max_steps=draw(st.integers(1, 1500)),
        master_seed=draw(st.integers(0, 2**64 + 5)),
    )
    # Every run takes one route: chunks of 512 trials, each seeded in one
    # array pass.  The counts lie each side of 1, 16, one chunk and one
    # chunk plus 16, so the last chunk is one trial, a few, or full.
    trials = draw(st.sampled_from([1, 2, 15, 16, 17, 511, 512, 513, 527, 528, 529]))
    return config, trials, {0, trials - 1, draw(st.integers(0, trials - 1))}


@settings(deadline=None)
@given(case=seeding_cases())
def test_seeding_routes_agree(case):
    # A lone run seeds default_rng(seed); monte_carlo sets one generator to
    # each trial's PCG64 state, computed in bulk.  Trial k must be the lone
    # run at derive_seed(master_seed, k), bit for bit.
    config, trials, picks = case
    seen = []
    monte_carlo(config, trials, sink=lambda idx, res: seen.append(res))
    for k in picks:
        assert repr(seen[k]) == repr(run(config, seed=derive_seed(config.master_seed, k)))


class TestSweep:
    def test_single_value_equals_monte_carlo(self):
        spec = dataclasses.replace(EX1.speculator, delta=0.2)
        want = monte_carlo(dataclasses.replace(EX1, speculator=spec), trials=5)
        assert sweep(EX1, "delta", [0.2], trials=5) == (want,)

    def test_sigma2_sweep_keeps_an_explicit_support(self):
        # Inside [95, 105] the trader never trades; on the default support
        # (mu +/- 6 sigma) every trial depletes.
        cfg = dataclasses.replace(EX1, source=NormalSpec(100.0, 100.0, 95.0, 105.0), master_seed=3)
        want = monte_carlo(cfg, trials=50)
        assert want.depleted_count == 0
        assert sweep(cfg, "sigma2", [100.0], trials=50) == (want,)
        wider = sweep_configs(cfg, "sigma2", [400.0])[0].source
        assert (wider.support_lo, wider.support_hi) == (95.0, 105.0)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="sigma2"):
            sweep(EX1, "volatility", [1.0], trials=1)

    def test_axis_source_mismatch_rejected(self):
        with pytest.raises(ValueError, match="normal source"):
            sweep(
                dataclasses.replace(EX1, source=WalkSpec(0.0, 1.0, 100.0)),
                "sigma2",
                [4.0],
                trials=1,
            )
        with pytest.raises(ValueError, match="walk source"):
            sweep(EX1, "sigma_step", [1.0], trials=1)

    def test_axes_registry(self):
        assert set(SWEEP_AXES) == {"sigma2", "delta", "lambda", "sigma_step", "n0", "eps", "reserves0"}

    def test_larger_traders_deplete_sooner(self):
        pts = sweep(dataclasses.replace(EX1, master_seed=7), "n0", [1.0, 100.0], trials=20)
        small, big = pts
        assert big.mean_depletion_steps <= small.mean_depletion_steps


class TestDeskScaleTrends:
    # Fixed master seed: every assertion below is deterministic.

    def test_mean_depletion_time_nondecreasing_in_delta(self):
        cfg = dataclasses.replace(EX1, master_seed=7, max_steps=20000)
        means = [
            censored_mean(summary, cfg.max_steps)
            for summary in sweep(cfg, "delta", [0.05, 0.1, 0.2], trials=100)
        ]
        assert means[0] <= means[1] <= means[2]

    def test_mean_depletion_time_nondecreasing_in_lambda(self):
        cfg = dataclasses.replace(EX1, master_seed=7, max_steps=20000)
        means = [
            censored_mean(summary, cfg.max_steps)
            for summary in sweep(cfg, "lambda", [0.0, 0.3, 0.6], trials=100)
        ]
        assert means[0] <= means[1] <= means[2]

    def test_mean_depletion_time_nonincreasing_in_sigma2(self):
        spec = SpeculatorParams(delta=0.2, lambda_buy=0.5, lambda_sell=0.5)
        cfg = dataclasses.replace(EX1, speculator=spec, master_seed=7, max_steps=20000)
        means = [
            censored_mean(summary, cfg.max_steps)
            for summary in sweep(cfg, "sigma2", [25.0, 100.0, 400.0], trials=100)
        ]
        assert means[0] >= means[1] >= means[2]

    def test_depletion_fraction_nondecreasing_in_sigma_step(self):
        # Grid stays below the floor-pinned regime, where the adaptive trader
        # stops trading and the trend genuinely reverses.
        cfg = SimConfig(
            source=WalkSpec(mu_step=0.0, sigma_step=1.0, p0=100.0),
            speculator=SpeculatorParams(delta=0.1),
            reserves0=1000.0,
            n0=100.0,
            max_steps=10000,
            master_seed=7,
        )
        fracs = [
            summary.fraction_depleted
            for summary in sweep(cfg, "sigma_step", [0.5, 2.0, 8.0], trials=100)
        ]
        assert fracs[0] <= fracs[1] <= fracs[2]
        assert fracs[-1] > 0.0

    def test_mean_depletion_time_nondecreasing_in_fee(self):
        cfg = dataclasses.replace(EX1, master_seed=7, max_steps=20000)
        means = [
            censored_mean(summary, cfg.max_steps)
            for summary in sweep(cfg, "eps", [0.0, 0.02, 0.04], trials=50)
        ]
        assert means[0] <= means[1] <= means[2]
