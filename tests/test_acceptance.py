"""Release checklist: one test per shipping requirement, run in order.

Each test prints a [PASS]/[FAIL] line naming the requirement, so a plain
`pytest -v tests/test_acceptance.py` doubles as the sign-off record.  The
checks here intentionally re-verify behavior covered by unit tests, but at
the shipped tolerances and sample sizes.
"""

import dataclasses
import json
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
    random_walk,
)
from pegstress.rounds import (
    build_round_matrix,
    discriminant,
    divergence_check,
    eigen,
    expected_portfolio,
    round_matrix_from_params,
)
from pegstress.speculator import NoTradeInterval, SpeculatorParams, WaitingInterval, waiting_interval
from pegstress.theory import (
    TailSpread,
    greedy_threshold_profit,
    min_fee,
    run_omniscient,
)

from oracles import optimal_profit_bruteforce, pdf, y_ratio_normal


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
    done = (summary.mean_depletion_step or 0.0) * summary.depleted_count
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
        assert 219.0 <= summary.mean_depletion_step <= 229.0
        assert 35.0 <= summary.std_depletion_step <= 51.0
        assert elapsed < 60.0


def test_03_eigen_algebra_randomized_suite():
    with checklist("03 eigen algebra holds on 10,000 random round matrices"):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            lam_b, lam_s = rng.uniform(0.0, 1.0, size=2)
            y = rng.uniform(1.0, 5.0)
            i, j = rng.uniform(1.0, 20.0, size=2)
            mat = round_matrix_from_params(lam_b, lam_s, i, j, y)
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
                round_matrix_from_params(lam_b, lam_s, i, j, 1.0),
                round_matrix_from_params(1.0, lam_s, i, j, y),
                round_matrix_from_params(lam_b, 1.0, i, j, y),
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
            mat = round_matrix_from_params(lam_b, lam_s, i, j, y)
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
