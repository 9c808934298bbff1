"""Release checklist: one test per shipping requirement, run in order.

Each test prints a [PASS]/[FAIL] line naming the requirement, so a plain
`pytest -v tests/test_acceptance.py` doubles as the sign-off record.  The
checks here intentionally re-verify behavior covered by unit tests, but at
the shipped tolerances and sample sizes.
"""

import dataclasses
import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from pegstress.cli import main
from pegstress.engine import SimConfig, monte_carlo, sweep
from pegstress.prices import (
    NormalSpec,
    PriceSeries,
    WalkSpec,
    cdf,
    iid_blocks,
    random_walk,
)
from pegstress.rounds import (
    build_round_matrix,
    discriminant,
    divergence_check,
    eigen,
    expected_depletion_rounds,
    round_matrix_from_params,
    rounds_to_timesteps,
)
from pegstress.speculator import NoTradeInterval, SpeculatorParams, WaitingInterval, waiting_interval
from pegstress.theory import (
    TailSpread,
    greedy_threshold_profit,
    min_fee,
    run_omniscient,
    tail_spread,
)

from oracles import expected_portfolio, optimal_profit_bruteforce, pdf, y_ratio_normal


@contextmanager
def checklist(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def parse_console(captured):
    out = {}
    for line in captured.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


def censored_mean(summary, cap):
    done = (summary.mean_depletion_steps or 0.0) * summary.depleted_count
    return (done + cap * (summary.trials - summary.depleted_count)) / summary.trials


REFERENCE_CONFIG = {
    "source": {"kind": "normal", "mu": 100.0, "sigma2": 100.0},
    "speculator": {"delta": 0.1},
    "reserves0": 100.0,
    "n0": 1.0,
}


def test_01_closed_form_reference_analysis(tmp_path, capsys):
    with checklist("01 closed-form depletion estimate on the reference config"):
        cfg = write_config(tmp_path, REFERENCE_CONFIG)
        t0 = time.perf_counter()
        assert main(["analyze", "--config", cfg]) == 0
        elapsed = time.perf_counter() - t0
        report = parse_console(capsys.readouterr().out)
        assert float(report["i"]) == pytest.approx(10.057, rel=5e-3)
        assert float(report["j"]) == pytest.approx(3.6954, rel=5e-3)
        assert float(report["depletion_rounds"]) == pytest.approx(15.78, rel=2e-2)
        assert float(report["depletion_timesteps"]) == pytest.approx(227.0, rel=2e-2)
        assert elapsed < 1.0


def test_02_monte_carlo_reference_moments():
    with checklist("02 10,000-trial Monte Carlo matches the closed-form estimate"):
        cfg = SimConfig(
            source=NormalSpec(100.0, 100.0),
            speculator=SpeculatorParams(delta=0.1),
            reserves0=100.0,
            n0=1.0,
        )
        t0 = time.perf_counter()
        summary = monte_carlo(cfg, trials=10_000)
        elapsed = time.perf_counter() - t0
        assert summary.fraction_depleted == 1.0
        assert 219.0 <= summary.mean_depletion_steps <= 229.0
        assert 35.0 <= summary.std_depletion_steps <= 51.0
        assert elapsed < 60.0


def test_03_eigen_algebra_randomized_suite():
    with checklist("03 eigen algebra holds on 10,000 random round matrices"):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            lam_b, lam_s = rng.uniform(0.0, 1.0, size=2)
            y = rng.uniform(1.0, 5.0)
            i, j = rng.uniform(1.0, 20.0, size=2)
            mat = round_matrix_from_params(lambda_buy=lam_b, lambda_sell=lam_s, i=i, j=j, y_ratio=y)
            r = discriminant(mat)

            # Lower bound, with equality only at the flat-ratio / full-haircut edges.
            gap = r - abs(mat.A + mat.D - 2.0)
            assert gap >= -1e-10
            if gap <= 1e-10:
                assert min(y - 1.0, 1.0 - mat.lam1_i, 1.0 - mat.lam2_j) <= 1e-6

            if r <= 1e-14:
                continue
            x0 = (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
            sys_ = eigen(mat, x0)

            assert sys_.a1 >= 1.0 - 1e-12
            assert sys_.a2 <= 1.0 + 1e-12
            if sys_.a2 < -1.0:
                assert mat.D > mat.A

            for a, c in ((sys_.a1, sys_.c1), (sys_.a2, sys_.c2)):
                mc = mat.apply(c)
                scale = max(1.0, abs(a) * max(abs(c[0]), abs(c[1])))
                assert abs(mc[0] - a * c[0]) <= 1e-9 * scale
                assert abs(mc[1] - a * c[1]) <= 1e-9 * scale

            split_scale = max(1.0, abs(x0[0]), abs(x0[1]))
            assert abs(sys_.c1[0] + sys_.c2[0] - x0[0]) <= 1e-12 * split_scale
            assert abs(sys_.c1[1] + sys_.c2[1] - x0[1]) <= 1e-12 * split_scale

            xk = x0
            for k in range(13):
                closed = expected_portfolio(sys_, float(k))
                scale = max(1.0, abs(xk[0]), abs(xk[1]))
                assert abs(closed[0] - xk[0]) <= 1e-9 * scale
                assert abs(closed[1] - xk[1]) <= 1e-9 * scale
                xk = mat.apply(xk)

        # Equality side of the iff: pin each edge exactly.
        rng = np.random.default_rng(2)
        for _ in range(200):
            lam_b, lam_s = rng.uniform(0.0, 0.95, size=2)
            i, j = rng.uniform(1.0, 20.0, size=2)
            y = rng.uniform(1.0, 5.0)
            for mat in (
                round_matrix_from_params(lambda_buy=lam_b, lambda_sell=lam_s, i=i, j=j, y_ratio=1.0),
                round_matrix_from_params(lambda_buy=1.0, lambda_sell=lam_s, i=i, j=j, y_ratio=y),
                round_matrix_from_params(lambda_buy=lam_b, lambda_sell=1.0, i=i, j=j, y_ratio=y),
            ):
                assert abs(discriminant(mat) - abs(mat.A + mat.D - 2.0)) <= 1e-10


def test_04_waiting_interval_ordering_and_collapse():
    with checklist("04 waiting interval is ordered and collapses with variance"):
        rng = np.random.default_rng(2)
        produced = attempts = 0
        while produced < 1_000:
            attempts += 1
            assert attempts <= 5_000  # the draw box must keep yielding intervals
            mu = rng.uniform(20.0, 200.0)
            sigma2 = rng.uniform(0.05, 0.3) * mu * mu / 4.0
            delta = rng.uniform(0.01, 0.3)
            try:
                wi = waiting_interval(NormalSpec(mu=mu, sigma2=sigma2), SpeculatorParams(delta=delta))
            except NoTradeInterval:
                continue
            produced += 1
            assert wi.y1 <= wi.y2

        widths = []
        for sigma2 in (100.0, 25.0, 4.0, 1.0, 1e-2, 1e-4, 1e-6, 1e-8):
            wi = waiting_interval(NormalSpec(mu=100.0, sigma2=sigma2), SpeculatorParams(delta=1e-8))
            widths.append(wi.y2 - wi.y1)
        assert all(a > b for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 2e-3


def test_05_partial_expectation_against_quadrature():
    with checklist("05 partial-expectation closed form matches quadrature"):
        rng = np.random.default_rng(3)
        for _ in range(1_000):
            mu = rng.uniform(5.0, 200.0)
            sigma = rng.uniform(0.5, 0.25 * mu)
            z1, z2 = sorted(rng.uniform(-4.0, 4.0, size=2))
            if z2 - z1 < 0.05:
                z2 = z1 + 0.05
            spec = NormalSpec(mu=mu, sigma2=sigma * sigma)
            a, b = mu + sigma * z1, mu + sigma * z2
            closed = mu * (cdf(spec, b) - cdf(spec, a)) - sigma * sigma * (pdf(spec, b) - pdf(spec, a))
            oracle, _ = integrate.quad(lambda x: x * pdf(spec, x), a, b, epsabs=1e-13, epsrel=1e-13)
            assert abs(closed - oracle) <= 1e-8 * max(abs(oracle), 1e-300)

        # The tail-mean ratio built from the same expansion, against the
        # round matrix's Y, whose conditional means are computed on the
        # truncated support independently.  sigma stays below mu/8
        # so the positivity floor never clips the 6-sigma support; the ratio
        # uses the untruncated expansion and only matches in that regime.
        rng = np.random.default_rng(4)
        for _ in range(200):
            mu = rng.uniform(20.0, 200.0)
            sigma = rng.uniform(0.02, 0.12) * mu
            spec = NormalSpec(mu=mu, sigma2=sigma * sigma)
            y1 = mu - rng.uniform(0.2, 2.0) * sigma
            y2 = mu + rng.uniform(0.2, 2.0) * sigma
            band = WaitingInterval(y1=y1, y2=y2, x1=y1, x2=y2, s1=1.0 / mu)
            want = build_round_matrix(spec, band, SpeculatorParams(delta=0.1)).y_ratio
            assert y_ratio_normal(spec, y1, y2) == pytest.approx(want, rel=1e-6)


def test_06_minimal_fee_boundary_on_two_point_series():
    with checklist("06 two-point series: exact fee boundary separates outcomes"):
        exact = min_fee(TailSpread(Fraction(1, 105), Fraction(1, 95), Fraction(1, 2)))
        assert exact == Fraction(1, 20)
        assert min_fee(TailSpread(1.0 / 105.0, 1.0 / 95.0, 0.5)) == pytest.approx(0.05, rel=1e-12)

        prices = PriceSeries(
            prices=tuple(105.0 if t % 2 == 0 else 95.0 for t in range(100_000)),
            source="two-point alternation",
        )
        risky = run_omniscient(prices, eps_alpha=0.04, eps_beta=0.04, reserves0=100.0, n0=1.0)
        assert risky.depleted
        assert risky.depletion_step <= 100_000
        assert risky.r_min == 0.0

        safe = run_omniscient(prices, eps_alpha=0.06, eps_beta=0.06, reserves0=100.0, n0=1.0)
        assert not safe.depleted
        one_trade = 1.0 * 105.0 / 95.0  # most backing a single round trip can move
        assert safe.r_min >= 100.0 - one_trade
        assert safe.r_min == 100.0  # above the fee boundary the best plan is no trade


def test_07_greedy_ledger_equals_bruteforce():
    with checklist("07 greedy profit ledger equals exhaustive search on 1,000 series"):
        rng = np.random.default_rng(5)
        for _ in range(1_000):
            length = int(rng.integers(2, 13))
            prices = PriceSeries(prices=tuple(rng.uniform(0.5, 2.0, size=length)), source="draw")
            ea, eb = rng.uniform(0.0, 0.2, size=2)
            fast = greedy_threshold_profit(prices, ea, eb)[-1]
            slow = optimal_profit_bruteforce(prices, ea, eb)[-1]
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-15)


def test_08_divergence_predicate_matches_trajectories():
    with checklist("08 divergence predicate matches 10,000-round trajectories"):
        x0 = (0.0, 10.0)
        y_values = (1.0, 1.2, 1.7, 2.5, 4.0)
        lam_pairs = ((0.0, 0.0), (0.35, 0.6), (0.8, 0.3), (1.0, 0.5), (0.4, 1.0))
        ij_pairs = ((1.0, 1.0), (1.0, 5.0), (5.0, 1.0), (3.0, 3.0), (12.0, 7.0), (2.0, 2.0), (20.0, 20.0), (7.0, 2.0))
        points = [(y, lams, ijs) for y in y_values for lams in lam_pairs for ijs in ij_pairs]
        assert len(points) == 200
        n_diverging = 0
        for y, (lam_b, lam_s), (i, j) in points:
            mat = round_matrix_from_params(lambda_buy=lam_b, lambda_sell=lam_s, i=i, j=j, y_ratio=y)
            sys_ = eigen(mat, x0)
            if divergence_check(mat, x0):
                n_diverging += 1
                try:
                    grew = max(expected_portfolio(sys_, 1e4)) > 1e6
                except OverflowError:
                    grew = True  # far past any finite threshold
                assert grew
            else:
                for k in (0.0, 1.0, 2.0, 5.0, 1e4):
                    xk = expected_portfolio(sys_, k)
                    for comp in range(2):
                        half_width = abs(sys_.c2[comp]) + 1e-9 * (1.0 + abs(sys_.c1[comp]))
                        assert abs(xk[comp] - sys_.c1[comp]) <= half_width
        assert n_diverging > 50  # both behaviors must be well represented
        assert n_diverging < 150


def test_09_trend_reproduction(tmp_path, capsys):
    with checklist("09 sweeps reproduce the expected depletion trends"):
        base = SimConfig(
            source=NormalSpec(100.0, 100.0),
            speculator=SpeculatorParams(delta=0.2, lambda_buy=0.5, lambda_sell=0.5),
            reserves0=100.0,
            n0=1.0,
            max_steps=20_000,
            master_seed=7,
        )
        summaries = sweep(base, "sigma2", [25.0, 100.0, 400.0], trials=100)
        means = [censored_mean(s, base.max_steps) for s in summaries]
        assert all(a > b for a, b in zip(means, means[1:]))

        base = dataclasses.replace(base, speculator=SpeculatorParams(delta=0.05))
        summaries = sweep(base, "delta", [0.05, 0.1, 0.2], trials=100)
        means = [censored_mean(s, base.max_steps) for s in summaries]
        assert all(a < b for a, b in zip(means, means[1:]))

        base = SimConfig(
            source=WalkSpec(0.0, 1.0, 100.0),
            speculator=SpeculatorParams(delta=0.1),
            reserves0=1000.0,
            n0=100.0,
            max_steps=10_000,
            master_seed=7,
        )
        summaries = sweep(base, "sigma_step", [0.5, 2.0, 8.0], trials=100)
        fracs = [s.fraction_depleted for s in summaries]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] > 0.0

    with checklist("09 endowment table: r_min nonincreasing, depletion at n0 = R0"):
        series = random_walk(WalkSpec(0.0, 2.0, 100.0), 2_000, seed=41)
        data = tmp_path / "hourly.csv"
        lines = ["timestamp,price"]
        lines.extend(f"{t},{p!r}" for t, p in enumerate(series.prices))
        data.write_text("\n".join(lines) + "\n")
        payload = {
            "source": {"kind": "csv", "path": str(data)},
            "speculator": {"delta": 0.1},
            "adaptive": {"c": 1.0, "window": 168},
            "reserves0": 100.0,
            "n0_grid": [1.0, 10.0, 100.0],
            "run": {"max_steps": 2_000},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "table.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            import csv as csv_mod

            rows = list(csv_mod.DictReader(fh))
        assert [r["n0"] for r in rows] == ["1.0", "10.0", "100.0"]  # one row per endowment
        assert {"n0", "trial", "r_min", "depleted", "depletion_step"} <= set(rows[0])
        r_mins = [float(r["r_min"]) for r in rows]
        assert all(a >= b for a, b in zip(r_mins, r_mins[1:]))
        assert rows[-1]["depleted"] == "true"  # n0 = R0 drains the reserve
        assert all(r["depleted"] == "false" for r in rows[:-1])


@pytest.mark.parametrize("lambda_buy, lambda_sell", [(0.3, 0.3), (0.3, 0.0), (0.0, 0.3), (0.6, 0.6)])
def test_10_closed_form_with_haircuts_matches_monte_carlo(tmp_path, capsys, lambda_buy, lambda_sell):
    with checklist(f"10 closed form within 2% of a 10,000-trial Monte Carlo at haircuts {lambda_buy}/{lambda_sell}"):
        speculator = {"delta": 0.1, "lambda_buy": lambda_buy, "lambda_sell": lambda_sell}
        cfg = write_config(tmp_path, dict(REFERENCE_CONFIG, speculator=speculator))
        assert main(["analyze", "--config", cfg]) == 0
        closed_form = float(parse_console(capsys.readouterr().out)["depletion_timesteps"])
        summary = monte_carlo(
            SimConfig(
                source=NormalSpec(100.0, 100.0),
                speculator=SpeculatorParams(**speculator),
                reserves0=100.0,
                n0=1.0,
            ),
            trials=10_000,
        )
        assert summary.fraction_depleted == 1.0
        assert abs(closed_form / summary.mean_depletion_steps - 1.0) <= 0.02


@pytest.mark.parametrize("eps_alpha, eps_beta", [(0.05, 0.0), (0.0, 0.05), (0.05, 0.05), (0.1, 0.1)])
def test_11_closed_form_with_fees_matches_monte_carlo(tmp_path, capsys, eps_alpha, eps_beta):
    with checklist(f"11 closed form within 2% of a 10,000-trial Monte Carlo at fees {eps_alpha}/{eps_beta}"):
        fees = {"eps_alpha": eps_alpha, "eps_beta": eps_beta}
        cfg = write_config(tmp_path, dict(REFERENCE_CONFIG, fees=fees))
        assert main(["analyze", "--config", cfg]) == 0
        closed_form = float(parse_console(capsys.readouterr().out)["depletion_timesteps"])
        summary = monte_carlo(
            SimConfig(
                source=NormalSpec(100.0, 100.0),
                speculator=SpeculatorParams(delta=0.1),
                reserves0=100.0,
                n0=1.0,
                **fees,
            ),
            trials=10_000,
        )
        assert summary.fraction_depleted == 1.0
        assert abs(closed_form / summary.mean_depletion_steps - 1.0) <= 0.02


@pytest.mark.parametrize("sigma2", [25.0, 100.0, 225.0])
def test_11_critical_fee_brackets_depletion(tmp_path, capsys, sigma2):
    # sigma / mu stays <= 1/6, where the support's clipping (at 100 - 6 sigma)
    # leaves the trader's tails as the closed form has them.
    with checklist(f"11 critical fee brackets simulated depletion at sigma2 {sigma2}"):
        source = {"kind": "normal", "mu": 100.0, "sigma2": sigma2}
        assert main(["analyze", "--config", write_config(tmp_path, dict(REFERENCE_CONFIG, source=source))]) == 0
        report = parse_console(capsys.readouterr().out)
        assert report["diverges"] == "true"
        eps = float(report["critical_fee"])
        assert 0.0 < eps < 1.0
        trials, horizon = 200, 100_000
        depleted = []
        for scale in (0.9, 1.1):
            config = SimConfig(
                source=NormalSpec(100.0, sigma2),
                speculator=SpeculatorParams(delta=0.1),
                reserves0=100.0,
                n0=1.0,
                eps_alpha=scale * eps,
                eps_beta=scale * eps,
                max_steps=horizon,
                master_seed=7,
            )
            depleted.append(monte_carlo(config, trials).depleted_count)
        assert depleted[0] == trials
        assert depleted[1] <= trials // 100

        # The omniscient trader, on a long sample of the same law, is
        # stopped only by a fee at least as high as this trader's.
        prices = np.concatenate([block for block, _ in itertools.islice(
            iid_blocks(NormalSpec(100.0, sigma2), np.random.default_rng(7)), 30)])
        assert len(prices) > 100_000
        series = PriceSeries(prices=tuple(prices.tolist()), source="normal draws")
        assert min_fee(tail_spread(series)) >= eps


# Acceptance test 12: the first passage against the simulation on a random
# box of configs.  Its rules were fixed before its first run:
# - draws: numpy default_rng(BOX_SEED), BOX_DRAWS configs, each drawing in
#   turn sigma2 uniform on [25, 270] (so sigma / mu < 1/6 and no support is
#   floored), delta uniform on [0.03, 0.4] and ln(reserves0 / n0) uniform on
#   [ln 10, ln 1000]; mu 100, n0 1, no haircut, no fee;
# - skip: a config with no waiting interval, or whose paper matrix puts
#   depletion past BOX_MAX_STEPS (or never);
# - trials: BOX_TRIALS a config, BOX_SLICE_TRIALS on the first BOX_SLICE
#   kept configs in the default run (--full-box runs every kept config),
#   max_steps 10**7, master seed BOX_MC_SEED;
# - gate: every trial depletes, and z = (first_passage_rounds - the trials'
#   mean rounds) / its standard error has |z| <= BOX_Z.  The mean of the
#   rounds times i + j is the conditional estimator of the mean depletion
#   step (a round's waits have known means).  The paper matrix's
#   depletion_* are not gated: they are the crossing of the expected path,
#   not a mean.
BOX_SEED, BOX_DRAWS, BOX_MAX_STEPS = 11, 40, 5e4
BOX_TRIALS, BOX_SLICE, BOX_SLICE_TRIALS, BOX_MC_SEED, BOX_Z = 3000, 10, 1000, 15, 4.0


def first_passage_box():
    """The box's kept configs, as analyze config payloads, in draw order."""
    rng = np.random.default_rng(BOX_SEED)
    kept = []
    for _ in range(BOX_DRAWS):
        sigma2, delta = rng.uniform(25.0, 270.0), rng.uniform(0.03, 0.4)
        reserves0 = math.exp(rng.uniform(math.log(10.0), math.log(1000.0)))
        dist, params = NormalSpec(100.0, sigma2), SpeculatorParams(delta=delta)
        try:
            mat = build_round_matrix(dist, waiting_interval(dist, params), params)
        except NoTradeInterval:
            continue
        k = expected_depletion_rounds(eigen(mat, (0.0, 1.0)), reserves0, 1.0)
        if math.isinf(k) or rounds_to_timesteps(k, mat.i, mat.j) > BOX_MAX_STEPS:
            continue
        kept.append({"source": {"kind": "normal", "mu": 100.0, "sigma2": sigma2}, "speculator": {"delta": delta},
                     "reserves0": reserves0, "n0": 1.0})
    return kept


def box_row(tmp_path, capsys, payload, trials):
    """analyze's report and a trials-trial simulation of one box config, as
    (report, mean rounds, its standard error, mean depletion step, its
    standard error); the test gates the rounds, the README's table prints
    all five."""
    assert main(["analyze", "--config", write_config(tmp_path, payload)]) == 0
    report = parse_console(capsys.readouterr().out)
    config = SimConfig(source=NormalSpec(100.0, payload["source"]["sigma2"]),
                       speculator=SpeculatorParams(**payload["speculator"]), reserves0=payload["reserves0"],
                       n0=1.0, max_steps=10**7, master_seed=BOX_MC_SEED)
    rounds = []
    summary = monte_carlo(config, trials, sink=lambda idx, res: rounds.append(res.rounds))
    assert summary.depleted_count == trials
    se_rounds = float(np.std(rounds, ddof=1)) / math.sqrt(trials)
    se_steps = summary.std_depletion_steps / math.sqrt(trials)
    return report, float(np.mean(rounds)), se_rounds, summary.mean_depletion_steps, se_steps


def pytest_generate_tests(metafunc):
    if "box_case" in metafunc.fixturenames:
        box = first_passage_box()
        cases = box if metafunc.config.getoption("full_box") else box[:BOX_SLICE]
        trials = BOX_TRIALS if metafunc.config.getoption("full_box") else BOX_SLICE_TRIALS
        metafunc.parametrize("box_case", [(payload, trials) for payload in cases],
                             ids=[f"box{k:02d}" for k in range(len(cases))])


def test_12_first_passage_matches_monte_carlo_on_a_random_box(tmp_path, capsys, box_case):
    payload, trials = box_case
    with checklist(f"12 first passage within {BOX_Z} standard errors of a {trials}-trial Monte Carlo"):
        report, mean, se, _, _ = box_row(tmp_path, capsys, payload, trials)
        assert report["first_passage_outcome"] == "depletes"
        z = (float(report["first_passage_rounds"]) - mean) / se
        assert abs(z) <= BOX_Z, f"z = {z:.2f}"
