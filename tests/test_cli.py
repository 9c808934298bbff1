"""End-to-end command-line tests: every subcommand through main(argv).

Console output is "key = value" lines; --out writes csv or json.  The tests
parse both and cross-check them, including the byte-identical reproducibility
guarantee for repeated invocations.
"""

import argparse
import csv
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from pegstress import cli
from pegstress.cli import main
from pegstress.engine import run, sweep


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse_console(captured):
    out = {}
    for line in captured.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


EX1_CONFIG = {
    "source": {"kind": "normal", "mu": 100.0, "sigma2": 100.0},
    "speculator": {"delta": 0.1},
    "reserves0": 100.0,
    "n0": 1.0,
}
# Haircuts and fees, with trials that end both ways within 300 steps.
FEES_CONFIG = dict(
    EX1_CONFIG, speculator={"delta": 0.1, "lambda_buy": 0.2, "lambda_sell": 0.1},
    fees={"eps_alpha": 0.01, "eps_beta": 0.01}, run={"max_steps": 300, "seed": 11},
)
# Each side of one, two and three chunks of 512 trials, and ten chunks.
TRIAL_COUNTS = (1, 511, 512, 513, 1024, 1025, 5000)


class TestAnalyze:
    def test_reference_config_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ex1.json", EX1_CONFIG)
        assert main(["analyze", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert report["outcome"] == "depletes"
        assert float(report["depletion_rounds"]) == pytest.approx(15.78, rel=2e-2)
        assert float(report["depletion_timesteps"]) == pytest.approx(227.0, rel=2e-2)
        assert float(report["i"]) == pytest.approx(10.057, rel=5e-3)
        assert float(report["j"]) == pytest.approx(3.6954, rel=5e-3)
        assert float(report["y1"]) == pytest.approx(93.88, abs=0.05)
        assert float(report["y2"]) == pytest.approx(112.83, abs=0.05)
        assert float(report["s1"]) == pytest.approx(0.009085, rel=1e-3)
        assert float(report["a1"]) == pytest.approx(1.3397, rel=1e-3)
        assert report["diverges"] == "true"

    PASSAGE = ("log_drift", "first_passage_outcome", "first_passage_rounds", "first_passage_timesteps")

    @pytest.mark.parametrize(
        "change, outcome",
        [({}, "depletes"), ({"fees": {"eps_alpha": 0.1, "eps_beta": 0.1}}, "depletes"),
         ({"fees": {"eps_alpha": 0.15, "eps_beta": 0.15}}, "not certain"),
         ({"speculator": {"delta": 0.1, "lambda_sell": 0.3}}, ""), ({"m0": 0.5}, ""), ({"n0": 0.0}, "")],
        ids=["reference", "fees", "drift_below_zero", "haircut", "stablecoins_held", "no_backing"],
    )
    def test_first_passage_fields(self, tmp_path, capsys, change, outcome):
        # They follow every other field, which they leave as it was.  Only the
        # all-in trader (no haircut) from backing alone is a first passage;
        # past the fee where the log drift reaches 0 (0.1457 here) depletion
        # is not certain and has no mean time.
        assert main(["analyze", "--config", write_config(tmp_path, "ex1.json", dict(EX1_CONFIG, **change))]) == 0
        report = parse_console(capsys.readouterr().out)
        assert tuple(report)[-4:] == self.PASSAGE
        assert report["first_passage_outcome"] == outcome
        if outcome == "depletes":
            rounds, steps = float(report["first_passage_rounds"]), float(report["first_passage_timesteps"])
            assert float(report["log_drift"]) > 0.0 and rounds > 0.0
            assert steps == pytest.approx(rounds * (float(report["i"]) + float(report["j"])), rel=1e-14)
        else:
            assert report["first_passage_rounds"] == report["first_passage_timesteps"] == ""
            assert (report["log_drift"] == "") == (outcome == "")
        if not change:
            assert float(report["first_passage_timesteps"]) == pytest.approx(223.05, abs=0.01)

    def test_raw_matrix_has_no_first_passage(self, tmp_path, capsys):
        payload = {"matrix": {"lambda_buy": 0.0, "lambda_sell": 0.0, "i": 5.0, "j": 3.0, "y_ratio": 1.4},
                   "reserves0": 100.0, "n0": 1.0}
        assert main(["analyze", "--config", write_config(tmp_path, "matrix.json", payload)]) == 0
        assert not set(self.PASSAGE) & set(parse_console(capsys.readouterr().out))

    def test_unit_y_ratio_never_depletes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "unit.json",
            {
                "matrix": {"lambda_buy": 0.5, "lambda_sell": 0.5, "i": 2.0, "j": 2.0, "y_ratio": 1.0},
                "reserves0": 5.0,
                "n0": 10.0,
            },
        )
        assert main(["analyze", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert report["outcome"] == "never depletes"
        assert report["diverges"] == "false"
        assert report["depletion_rounds"] == ""

    def test_missing_sigma2_names_the_key(self, tmp_path, capsys):
        payload = {
            "source": {"kind": "normal", "mu": 100.0},
            "speculator": {"delta": 0.1},
            "reserves0": 100.0,
        }
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["analyze", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "sigma2" in err and err.startswith("error:")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        payload = dict(EX1_CONFIG, typo_key=1.0)
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["analyze", "--config", cfg]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_series_source_rejected(self, tmp_path, capsys):
        payload = dict(EX1_CONFIG, source={"kind": "literal", "prices": [1.0, 2.0]})
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["analyze", "--config", cfg]) == 1
        assert "distribution" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [EX1_CONFIG, {"matrix": {"lambda_buy": 0.3, "lambda_sell": 0.3, "i": 5.0, "j": 3.0, "y_ratio": 1.4},
                      "reserves0": 100.0, "n0": 1.0}],
        ids=["normal", "matrix"],
    )
    @pytest.mark.parametrize("fees", [{"eps_alpha": 0.05}, {"eps_beta": 0.01}, {"eps_alpha": 0.1, "eps_beta": 0.1}])
    def test_nonzero_fees_honoured(self, tmp_path, capsys, payload, fees):
        # The report is that of the fee-adjusted matrix; critical_fee is the
        # fee-free matrix's, so the fees leave it as it was.
        cfg = write_config(tmp_path, "free.json", payload)
        assert main(["analyze", "--config", cfg]) == 0
        free = parse_console(capsys.readouterr().out)
        cfg = write_config(tmp_path, "fees.json", dict(payload, fees=fees))
        assert main(["analyze", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        f = (1.0 - fees.get("eps_beta", 0.0)) / (1.0 + fees.get("eps_alpha", 0.0))
        assert float(report["y_ratio"]) == float(free["y_ratio"]) * f
        assert float(report["critical_fee"]) == float(free["critical_fee"]) > 0.0
        assert float(report["depletion_timesteps"]) > float(free["depletion_timesteps"])
        fee = float(free["critical_fee"])
        above = {"eps_alpha": 1.01 * fee, "eps_beta": 1.01 * fee}
        assert main(["analyze", "--config", write_config(tmp_path, "above.json", dict(payload, fees=above))]) == 0
        assert parse_console(capsys.readouterr().out)["diverges"] == "false"

    def test_zero_fees_accepted(self, tmp_path, capsys):
        fees = {"eps_alpha": 0.0, "eps_beta": 0.0}
        cfg = write_config(tmp_path, "fees.json", dict(EX1_CONFIG, fees=fees))
        assert main(["analyze", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert float(report["depletion_timesteps"]) == pytest.approx(227.0, rel=2e-2)

    @pytest.mark.parametrize(
        "holdings, key",
        [
            ({"reserves0": float("inf")}, "reserves0"),
            ({"reserves0": float("nan")}, "reserves0"),
            ({"n0": float("nan")}, "n0"),
            ({"m0": float("inf")}, "m0"),
            ({"n0_grid": [1.0, float("nan")]}, "n0_grid"),
        ],
    )
    def test_non_finite_holdings_rejected(self, tmp_path, capsys, holdings, key):
        # json writes these as Infinity / NaN, which json.load reads back.
        cfg = write_config(tmp_path, "bad.json", dict(EX1_CONFIG, **holdings))
        assert main(["analyze", "--config", cfg]) == 1
        err = capsys.readouterr().err
        # The models' own messages; n0_grid's also names the grid.
        message = {
            "reserves0": "reserves0 must be finite and > 0",
            "n0_grid": "bad value for 'n0_grid' in config: n0 must be finite and >= 0",
        }.get(key, f"{key} must be finite and >= 0")
        assert err == f"error: {message}\n"

    def test_n0_grid_rejected(self, tmp_path, capsys):
        # One report, at n0 alone, used to stand for the whole grid.
        cfg = write_config(tmp_path, "grid.json", dict(EX1_CONFIG, n0_grid=[1, 10.0, 100]))
        assert main(["analyze", "--config", cfg]) == 1
        assert capsys.readouterr() == ("", "error: analyze answers for one n0: 'n0_grid' needs simulate\n")

    def test_adaptive_mode_rejected(self, tmp_path, capsys):
        # The closed form is the fixed band's: it used to answer 226.67
        # timesteps here, where simulate runs the rolling band (194.2).
        payload = dict(EX1_CONFIG, mode="adaptive", adaptive={"c": 1.0, "window": 50})
        cfg = write_config(tmp_path, "adaptive.json", payload)
        assert main(["analyze", "--config", cfg]) == 1
        message = "error: analyze models the fixed-band trader: 'mode' adaptive needs simulate\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("mode", ["auto", "analytic"])
    def test_fixed_band_modes_answer_as_the_default(self, tmp_path, capsys, mode):
        # An adaptive section stays checked but unused.
        reports = []
        for payload in (EX1_CONFIG, dict(EX1_CONFIG, mode=mode, adaptive={"c": 1.0, "window": 50})):
            assert main(["analyze", "--config", write_config(tmp_path, "cfg.json", payload)]) == 0
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "theory", "ingest-stats"])
    def test_zero_reserves_rejected(self, tmp_path, capsys, command):
        # Checked once, as the config is read: analyze used to answer
        # depletion_rounds = 0 with depletion_timesteps = i.
        cfg = write_config(tmp_path, "zero.json", dict(EX1_CONFIG, reserves0=0.0))
        assert main([command, "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: reserves0 must be finite and > 0\n"

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("key", ["i", "j", "y_ratio", "sell_mean"])
    def test_non_finite_matrix_rejected(self, tmp_path, capsys, key, value):
        # An infinite i used to answer depletes at timestep inf; a NaN
        # failed later, blaming an overflowed eigen system.
        matrix = {"lambda_buy": 0.3, "lambda_sell": 0.3, "i": 5.0, "j": 3.0, "y_ratio": 1.4, key: value}
        cfg = write_config(tmp_path, "bad.json", {"matrix": matrix, "reserves0": 100.0, "n0": 1.0})
        assert main(["analyze", "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.endswith(" must be finite and positive\n")

    def test_overflowing_matrix_rejected(self, tmp_path, capsys):
        # (A - D)^2 overflows once |A - D| passes ~1.34e154; the
        # discriminant's ** 2 used to end main with an OverflowError.
        for y_ratio, code in ((1e154, 0), (1e155, 1)):
            cfg = write_config(tmp_path, "big.json", {"matrix": {"i": 2, "j": 2, "y_ratio": y_ratio}, "reserves0": 100})
            assert main(["analyze", "--config", cfg]) == code
        out, err = capsys.readouterr()
        assert "outcome = depletes" in out
        assert err == "error: round matrix overflows: (A - D)^2 is out of float range\n"

    def test_decaying_matrix_does_not_diverge(self, tmp_path, capsys):
        # Y < 1 puts the dominant eigenvalue below 1: the backing decays.
        matrix = {"lambda_buy": 0.3, "lambda_sell": 0.3, "i": 5.0, "j": 3.0, "y_ratio": 0.5}
        cfg = write_config(tmp_path, "decay.json", {"matrix": matrix, "reserves0": 100.0, "n0": 1.0})
        assert main(["analyze", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert float(report["a1"]) < 1.0
        assert report["diverges"] == "false"
        assert report["outcome"] == "never depletes"

    def test_delta_defaults_as_in_simulate(self, tmp_path, capsys):
        source = {"kind": "normal", "mu": 100.0, "sigma2": 2500.0}
        outs = []
        for speculator in ({}, {"delta": 0.5}):
            cfg = write_config(tmp_path, "d.json", dict(EX1_CONFIG, source=source, speculator=speculator))
            assert main(["analyze", "--config", cfg]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert parse_console(outs[0])["delta"] == "0.5"

    def test_slowly_diverging_matrix_depletes(self, tmp_path, capsys):
        # Dominant eigenvalue 1 + 3.3e-8: the crossing lies near 1e8 rounds.
        lam, i, j, eps = 0.25, 10.0, 4.0, 3.3e-8
        l1, l2 = lam**i, lam**j
        trace = ((1.0 + eps) ** 2 + l1 * l2) / (1.0 + eps)
        y_ratio = (trace - l1 - l2) / ((1.0 - l1) * (1.0 - l2))
        matrix = {"lambda_buy": lam, "lambda_sell": lam, "i": i, "j": j, "y_ratio": y_ratio}
        cfg = write_config(tmp_path, "slow.json", {"matrix": matrix, "reserves0": 100.0, "n0": 1.0})
        assert main(["analyze", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert report["outcome"] == "depletes"
        assert report["diverges"] == "true"
        k = float(report["depletion_rounds"])
        assert 1e7 < k < 1e9
        assert float(report["depletion_timesteps"]) == i + k * (i + j)

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"speculator": {}}, "outside the price support"),  # delta 0.5
            ({"source": {"kind": "normal", "mu": 100.0, "sigma2": 0.0}}, "nondegenerate"),
        ],
        ids=["deep_discount", "point_mass"],
    )
    def test_inert_trader_never_depletes(self, tmp_path, capsys, change, reason):
        # No band is worth trading, so the trader never acts: an answer, the
        # one simulate gives, not an error.
        cfg = write_config(tmp_path, "inert.json", dict(EX1_CONFIG, **change))
        assert main(["analyze", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert report["outcome"] == "never depletes"
        assert reason in report["reason"]
        assert report["depletion_rounds"] == ""
        assert main(["simulate", "--config", cfg, "--trials", "20", "--max-steps", "2000"]) == 0
        sim = parse_console(capsys.readouterr().out)
        assert float(sim["fraction_depleted"]) == 0.0
        assert float(sim["r_min_min"]) == EX1_CONFIG["reserves0"]

    @pytest.mark.parametrize(
        "base",
        [EX1_CONFIG, {"matrix": {"lambda_buy": 0.3, "lambda_sell": 0.3, "i": 5.0, "j": 3.0, "y_ratio": 1.4},
                      "reserves0": 100.0}],
        ids=["normal", "matrix"],
    )
    def test_empty_handed_trader_never_depletes(self, tmp_path, capsys, base):
        # With n0 = m0 = 0 both eigen coefficients are 0: the backing stays 0
        # however far the dominant power would overflow.
        cfg = write_config(tmp_path, "empty.json", dict(base, n0=0.0, m0=0.0))
        assert main(["analyze", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert (report["outcome"], report["depletion_rounds"]) == ("never depletes", "")

    def test_file_matches_console(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ex1.json", EX1_CONFIG)
        out = tmp_path / "report.csv"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = parse_console(capsys.readouterr().out)
        rows = read_csv(str(out))
        assert len(rows) == 1
        assert rows[0] == report


class TestSimulate:
    def test_constant_series_keeps_reserves(self, tmp_path, capsys):
        payload = {
            "source": {"kind": "literal", "prices": [100.0], "repeat": 50},
            "speculator": {"delta": 0.1},
            "reserves0": 100.0,
            "n0": 1.0,
        }
        cfg = write_config(tmp_path, "const.json", payload)
        out = tmp_path / "runs.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert len(rows) == 1
        assert rows[0]["depleted"] == "false"
        assert float(rows[0]["r_min"]) == 100.0
        console = parse_console(capsys.readouterr().out)
        assert float(console["fraction_depleted"]) == 0.0

    def test_malformed_csv_reports_row(self, tmp_path, capsys):
        data = tmp_path / "prices.csv"
        data.write_text("timestamp,price\n1,100.0\n2,not_a_price\n")
        payload = {
            "source": {"kind": "csv", "path": str(data)},
            "speculator": {"delta": 0.1},
            "reserves0": 100.0,
        }
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "row 3" in err

    def test_endowment_grid_structure(self, tmp_path, capsys):
        data = tmp_path / "prices.csv"
        lines = ["timestamp,price"]
        for t in range(200):
            lines.append(f"{t},{105.0 if t % 2 == 0 else 95.0}")
        data.write_text("\n".join(lines) + "\n")
        payload = {
            "source": {"kind": "csv", "path": str(data)},
            "speculator": {"delta": 0.1},
            "adaptive": {"c": 1.0, "window": 20},
            "reserves0": 100.0,
            "n0_grid": [1.0, 10.0, 100.0],
        }
        cfg = write_config(tmp_path, "grid.json", payload)
        out = tmp_path / "grid.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert [r["n0"] for r in rows] == ["1.0", "10.0", "100.0"]
        # Bigger trader endowments can only strain reserves harder.
        r_mins = [float(r["r_min"]) for r in rows]
        assert r_mins[0] >= r_mins[1] >= r_mins[2]
        console = capsys.readouterr().out
        assert console.count("fraction_depleted = ") == 3

    def test_traces_require_json(self, tmp_path, capsys):
        payload = dict(EX1_CONFIG, run={"record_traces": True, "max_steps": 50})
        cfg = write_config(tmp_path, "tr.json", payload)
        out = tmp_path / "runs.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert "json" in capsys.readouterr().err

    def test_traces_require_out(self, tmp_path, capsys):
        # Without --out every trial used to run traced and drop its traces.
        payload = dict(EX1_CONFIG, run={"record_traces": True, "max_steps": 50})
        cfg = write_config(tmp_path, "tr.json", payload)
        assert main(["simulate", "--config", cfg]) == 1
        assert capsys.readouterr() == ("", "error: record_traces output requires --out with --format json\n")

    def test_traces_embedded_in_json(self, tmp_path):
        payload = dict(EX1_CONFIG, run={"record_traces": True, "max_steps": 50})
        cfg = write_config(tmp_path, "tr.json", payload)
        out = tmp_path / "runs.json"
        code = main(["simulate", "--config", cfg, "--out", str(out), "--format", "json"])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        traces = rows[0]["traces"]
        assert len(traces["p"]) == rows[0]["steps"]
        assert set(traces) == {"p", "delta", "reserves", "n", "m"}

    def test_console_aggregate_matches_file_rows(self, tmp_path, capsys):
        payload = dict(EX1_CONFIG, run={"trials": 5, "max_steps": 2000})
        cfg = write_config(tmp_path, "mc.json", payload)
        out = tmp_path / "mc.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        console = parse_console(capsys.readouterr().out)
        rows = read_csv(str(out))
        assert len(rows) == 5
        depleted = [r for r in rows if r["depleted"] == "true"]
        assert float(console["fraction_depleted"]) == len(depleted) / 5
        steps = [float(r["depletion_step"]) for r in depleted]
        assert float(console["mean_depletion_steps"]) == pytest.approx(
            sum(steps) / len(steps), rel=1e-12
        )

    def test_console_report_is_pinned(self, tmp_path, capsys):
        # Every line of the three summaries, their keys, order and values.
        # Recorded while the CLI still copied the summary field by field.
        cfg = write_config(tmp_path, "grid.json", dict(EX1_CONFIG, n0_grid=[0.5, 1.0, 3.0]))
        assert main(["simulate", "--config", cfg, "--trials", "200", "--seed", "3"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "2cc09cf81fcceaab4ba9c73538ed5255602c6a1b5674f15f6b2a44bc83cf5618"

    def test_console_is_the_same_without_out(self, tmp_path, capsys, monkeypatch):
        payload = dict(EX1_CONFIG, run={"trials": 20}, n0_grid=[0.5, 2.0])
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "mc.csv")]) == 0
        with_out = capsys.readouterr().out
        sinks = []

        def spy(config, axis, values, trials, sink=None):
            sinks.append(sink)
            return sweep(config, axis, values, trials, sink)

        monkeypatch.setattr(cli, "sweep", spy)
        assert main(["simulate", "--config", cfg]) == 0
        assert capsys.readouterr().out == with_out
        # The grid is one sweep over n0, which keeps no per-trial record, and
        # without --out nothing is handed one.
        assert sinks == [None]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_run_leaves_earlier_out_untouched(self, tmp_path, capsys, monkeypatch, fmt):
        payload = dict(EX1_CONFIG, run={"trials": 20, "max_steps": 2000})
        cfg = write_config(tmp_path, "mc.json", payload)
        outdir = tmp_path / "out"
        outdir.mkdir()
        out = outdir / f"runs.{fmt}"
        out.write_bytes(b"earlier run\n")

        def failing(config, trials, sink=None):
            for idx in range(3):
                sink(idx, run(config, seed=idx))
            raise ValueError("trial 3 failed")

        monkeypatch.setattr(cli, "monte_carlo", failing)
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", fmt]) == 1
        assert "trial 3 failed" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier run\n"
        assert [p.name for p in outdir.iterdir()] == [out.name]  # no temporary file left

        monkeypatch.undo()
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        assert [p.name for p in outdir.iterdir()] == [out.name]
        assert out.read_bytes() != b"earlier run\n"

    @pytest.mark.parametrize(
        "rows",
        [[{"a": 1.5}], [{}, {"a": [], "b": {}}, {"c": {"d": [None, True, 1e-300, "x\ny"]}}]],
        ids=["one_row", "nested"],
    )
    def test_streamed_json_is_json_dump(self, tmp_path, capsys, rows):
        # Rows are written one at a time, in the bytes one json.dump of the
        # whole list would give.
        out = tmp_path / "rows.json"
        with cli._out_records(argparse.Namespace(out=str(out), format="json")) as write:
            for row in rows:
                write(row)
        assert out.read_text() == json.dumps(rows, indent=2) + "\n"
        assert capsys.readouterr().err == f"wrote {out} ({len(rows)} records)\n"

    def test_seed_flag_changes_trials(self, tmp_path):
        cfg = write_config(tmp_path, "ex1.json", EX1_CONFIG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == 0
        assert read_csv(str(out_a)) != read_csv(str(out_b))

    def test_byte_identical_reruns(self, tmp_path):
        payload = dict(EX1_CONFIG, run={"trials": 3})
        cfg = write_config(tmp_path, "mc.json", payload)
        outs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_byte_identical_json(self, tmp_path):
        cfg = write_config(tmp_path, "ex1.json", EX1_CONFIG)
        outs = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            code = main(["simulate", "--config", cfg, "--out", str(out), "--format", "json"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "trials, fmt, traced",
        [(n, fmt, False) for n in TRIAL_COUNTS for fmt in ("csv", "json")]
        + [(n, "json", True) for n in TRIAL_COUNTS[:-1]],  # the traced files stay small
    )
    def test_forked_trials_write_the_in_process_bytes(self, tmp_path, capsys, monkeypatch, trials, fmt, traced):
        # Trials run in chunks of 512 on each CPU (three here, so two
        # children), or all in process on one; --out and the console are
        # the same bytes.
        run = {"max_steps": 20 if traced else 300, "seed": 11, "record_traces": traced}
        cfg = write_config(tmp_path, "fees.json", dict(FEES_CONFIG, run=run))
        got = []
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"cpus{cpus}.{fmt}"
            argv = ["simulate", "--config", cfg, "--trials", str(trials), "--out", str(out), "--format", fmt]
            assert main(argv) == 0
            got.append((out.read_bytes(), capsys.readouterr().out))
        assert got[0] == got[1]
        assert f"trials = {trials}\n" in got[0][1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_sink_leaves_no_child_and_no_file(self, tmp_path, capsys, monkeypatch, fmt):
        # The row of trial 1500 (in the second child's chunk of three
        # workers) cannot be written: the children are killed and reaped,
        # and the temporary file is removed.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        record = cli._trial_record

        def failing(n0, idx, res, bools):
            if idx == 1500:
                raise OSError("disk full")
            return record(n0, idx, res, bools)

        monkeypatch.setattr(cli, "_trial_record", failing)
        cfg = write_config(tmp_path, "fees.json", FEES_CONFIG)
        outdir = tmp_path / "out"
        outdir.mkdir()
        argv = ["simulate", "--config", cfg, "--trials", "3000", "--out", str(outdir / f"runs.{fmt}"), "--format", fmt]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(outdir.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_grid_writes_the_same_bytes_on_any_cpus(self, tmp_path, capsys, monkeypatch, command, fmt):
        # Three points of 600 trials are six chunks, dealt over three CPUs
        # (two children) or all run in process on one: the same --out and
        # console bytes.
        grid = {"n0_grid": [0.5, 1.0, 2.0]} if command == "simulate" else {
            "sweep": {"axis": "eps", "values": [0.0, 0.01, 0.02]}}
        cfg = write_config(tmp_path, "grid.json", dict(FEES_CONFIG, **grid))
        got = []
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"cpus{cpus}.{fmt}"
            argv = [command, "--config", cfg, "--trials", "600", "--out", str(out), "--format", fmt]
            assert main(argv) == 0
            got.append((out.read_bytes(), capsys.readouterr().out))
        assert got[0] == got[1]
        assert got[0][1].count("trials = 600\n") == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestTheory:
    def test_two_point_alternation(self, tmp_path, capsys):
        payload = {
            "source": {"kind": "literal", "prices": [95.0, 105.0], "repeat": 10},
            "fees": {"eps_alpha": 0.04, "eps_beta": 0.04},
        }
        cfg = write_config(tmp_path, "alt.json", payload)
        assert main(["theory", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert report["classification"] == "at-risk"
        assert float(report["L"]) < 0.0
        assert float(report["min_fee"]) == pytest.approx(0.05, rel=1e-12)

    def test_constant_series_needs_no_fee(self, tmp_path, capsys):
        payload = {"source": {"kind": "literal", "prices": [80.0], "repeat": 4}}
        cfg = write_config(tmp_path, "const.json", payload)
        assert main(["theory", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert float(report["min_fee"]) == 0.0
        assert report["classification"] == "boundary"  # L = 0 at zero fees

    def test_converging_sequence_boundary(self, tmp_path, capsys):
        payload = {
            "source": {"kind": "converging_spread", "inv_lo": 1.0, "inv_hi": 2.0, "pairs": 200},
            "fees": {"eps_alpha": 1 / 3, "eps_beta": 1 / 3},
            "theory": {"boundary_tol": 0.02},
        }
        cfg = write_config(tmp_path, "conv.json", payload)
        assert main(["theory", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert report["classification"] == "boundary"
        assert abs(float(report["L"])) < 0.05
        assert float(report["min_fee"]) == pytest.approx(1 / 3, abs=0.01)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_bad_boundary_tol_rejected(self, tmp_path, capsys, tol):
        # The README's two-point series at 5% fees: the default tolerance
        # labels it boundary; a NaN or negative one used to say stable.
        payload = {
            "source": {"kind": "literal", "prices": [95.0, 105.0], "repeat": 10},
            "fees": {"eps_alpha": 0.05, "eps_beta": 0.05},
        }
        cfg = write_config(tmp_path, "alt.json", payload)
        assert main(["theory", "--config", cfg]) == 0
        assert parse_console(capsys.readouterr().out)["classification"] == "boundary"
        cfg = write_config(tmp_path, "tol.json", dict(payload, theory={"boundary_tol": tol}))
        assert main(["theory", "--config", cfg]) == 1
        assert capsys.readouterr() == ("", "error: boundary_tol must be finite and >= 0\n")

    def test_unparsable_csv_is_an_error_line(self, tmp_path, capsys):
        # A field past the csv module's limit (131072 characters) used to end
        # main with a _csv.Error traceback.
        data = tmp_path / "prices.csv"
        data.write_text(f"timestamp,price\n1,{'1' * 200_000}\n")
        cfg = write_config(tmp_path, "big.json", {"source": {"kind": "csv", "path": str(data)}})
        assert main(["theory", "--config", cfg]) == 1
        assert capsys.readouterr() == ("", f"error: {data}: line 2: field larger than field limit (131072)\n")

    def test_distribution_source_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"source": {"kind": "normal", "mu": 1.0, "sigma2": 1.0}})
        assert main(["theory", "--config", cfg]) == 1
        assert "concrete price series" in capsys.readouterr().err

    def test_file_matches_console(self, tmp_path, capsys):
        payload = {"source": {"kind": "literal", "prices": [95.0, 105.0], "repeat": 3}}
        cfg = write_config(tmp_path, "alt.json", payload)
        out = tmp_path / "theory.json"
        assert main(["theory", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        report = parse_console(capsys.readouterr().out)
        (row,) = json.loads(out.read_text())
        for key, value in row.items():
            if isinstance(value, float):
                assert repr(value) == report[key]
            else:
                assert str(value) == report[key]


class TestSweep:
    def test_lambda_grid_emits_five_rows(self, tmp_path, capsys):
        payload = dict(
            EX1_CONFIG,
            sweep={"axis": "lambda", "values": [0.0, 0.2, 0.4, 0.6, 0.8]},
            run={"trials": 2, "max_steps": 3000},
        )
        cfg = write_config(tmp_path, "lam.json", payload)
        out = tmp_path / "lam.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert [r["value"] for r in rows] == ["0.0", "0.2", "0.4", "0.6", "0.8"]
        assert all(r["axis"] == "lambda" for r in rows)
        assert "log10_mean_depletion_steps" in rows[0]

    def test_delta_grid_emits_seven_rows(self, tmp_path, capsys):
        # Deep discounts make the trader inert; those points still get a row.
        payload = dict(
            EX1_CONFIG,
            sweep={"axis": "delta", "values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]},
            run={"trials": 2, "max_steps": 2000},
        )
        cfg = write_config(tmp_path, "delta.json", payload)
        out = tmp_path / "delta.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert len(rows) == 7
        assert rows[-1]["fraction_depleted"] == "0.0"

    def test_reserves0_grid_depletes_later_with_more_reserves(self, tmp_path, capsys):
        payload = dict(EX1_CONFIG, sweep={"axis": "reserves0", "values": [20.0, 200.0], "trials": 20})
        cfg = write_config(tmp_path, "res.json", payload)
        out = tmp_path / "res.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        small, big = read_csv(str(out))
        assert (small["axis"], small["value"], big["value"]) == ("reserves0", "20.0", "200.0")
        assert small["fraction_depleted"] == big["fraction_depleted"] == "1.0"
        assert float(big["mean_depletion_steps"]) > float(small["mean_depletion_steps"])

    def test_empty_values_rejected(self, tmp_path, capsys):
        payload = dict(EX1_CONFIG, sweep={"axis": "delta", "values": []})
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["sweep", "--config", cfg]) == 1
        assert "non-empty" in capsys.readouterr().err

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        payload = dict(EX1_CONFIG, sweep={"axis": "volatility", "values": [1.0]})
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["sweep", "--config", cfg]) == 1
        assert "volatility" in capsys.readouterr().err

    def test_record_traces_rejected(self, tmp_path, capsys):
        # A sweep keeps no per-trial record, so traces would be run and dropped.
        payload = dict(EX1_CONFIG, sweep={"axis": "delta", "values": [0.1]}, run={"record_traces": True})
        cfg = write_config(tmp_path, "tr.json", payload)
        assert main(["sweep", "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "record_traces" in err

    def test_n0_grid_rejected(self, tmp_path, capsys):
        # Every point used to run at n0 alone, whatever the grid said.
        payload = dict(EX1_CONFIG, sweep={"axis": "delta", "values": [0.1, 0.2]}, n0_grid=[1, 10.0, 100])
        cfg = write_config(tmp_path, "grid.json", payload)
        assert main(["sweep", "--config", cfg]) == 1
        assert capsys.readouterr() == ("", "error: sweep runs one n0: 'n0_grid' needs simulate\n")

    def test_trials_priority(self, tmp_path, capsys):
        payload = dict(
            EX1_CONFIG,
            sweep={"axis": "delta", "values": [0.1], "trials": 4},
            run={"max_steps": 1000},
        )
        cfg = write_config(tmp_path, "pri.json", payload)
        assert main(["sweep", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert report["trials"] == "4"
        assert main(["sweep", "--config", cfg, "--trials", "2"]) == 0
        report = parse_console(capsys.readouterr().out)
        assert report["trials"] == "2"


class TestIngestStats:
    def test_literal_series_stats(self, tmp_path, capsys):
        payload = {"source": {"kind": "literal", "prices": [10.0, 11.0, 12.0, 13.0]}}
        cfg = write_config(tmp_path, "walk.json", payload)
        assert main(["ingest-stats", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert report["rows"] == "4"
        assert float(report["p0"]) == 10.0
        assert float(report["mu_step"]) == 1.0
        assert float(report["sigma_step"]) == 0.0

    def test_csv_round_trip(self, tmp_path, capsys):
        data = tmp_path / "prices.csv"
        data.write_text("timestamp,price\n1,100.0\n2,104.0\n3,96.0\n")
        payload = {"source": {"kind": "csv", "path": str(data)}}
        cfg = write_config(tmp_path, "ing.json", payload)
        out = tmp_path / "stats.json"
        assert main(["ingest-stats", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        (row,) = json.loads(out.read_text())
        assert row["rows"] == 3
        assert row["p0"] == 100.0
        assert row["mu_step"] == pytest.approx(-2.0)

    def test_distribution_source_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "bad.json", {"source": {"kind": "walk", "mu_step": 0.0, "sigma_step": 1.0, "p0": 1.0}}
        )
        assert main(["ingest-stats", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "concrete price series" in err and "converging_spread" in err

    def test_converging_spread_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "conv.json", {"source": {"kind": "converging_spread", "pairs": 5}})
        assert main(["ingest-stats", "--config", cfg]) == 0
        assert parse_console(capsys.readouterr().out)["rows"] == "10"


class TestErrorPlumbing:
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_normal_support_reaching_zero_rejected(self, tmp_path, capsys, command):
        source = {"kind": "normal", "mu": 0.0, "sigma2": 1.0, "support_lo": -4.0, "support_hi": 4.0}
        cfg = write_config(tmp_path, "bad.json", dict(EX1_CONFIG, source=source))
        assert main([command, "--config", cfg, "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "support_lo must be > 0" in err

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize(
        "source, message",
        [
            (
                {"kind": "normal", "mu": 100.0, "sigma2": 100.0, "support_hi": float("inf")},
                "support_hi must be finite",
            ),
            (
                {"kind": "normal", "mu": 100.0, "sigma2": 0.0, "support_lo": 50.0, "support_hi": 90.0},
                "a point mass needs support_lo <= mu <= support_hi",
            ),
            (
                {"kind": "walk", "mu_step": 0.0, "sigma_step": 1.0, "p0": 100.0, "floor": float("inf")},
                "floor must be finite and positive so 1/p stays defined",
            ),
        ],
        ids=["normal_support_hi_inf", "point_mass_outside_support", "walk_floor_inf"],
    )
    def test_spec_edge_rejected_as_the_config_is_read(self, tmp_path, capsys, command, source, message):
        # An infinite support_hi failed deep in the optimiser ("empty search
        # interval"); an infinite floor priced every walk step at inf, and
        # simulate exited 0 with NaN bands and nothing depleted.
        cfg = write_config(tmp_path, "bad.json", dict(EX1_CONFIG, source=source))
        assert main([command, "--config", cfg, "--trials", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("key", ["n0", "m0"])
    def test_simulate_rejects_nan_holdings(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, "bad.json", dict(EX1_CONFIG, **{key: float("nan")}))
        assert main(["simulate", "--config", cfg, "--trials", "2"]) == 1
        assert "must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -1.0])
    def test_simulate_rejects_bad_adaptive_c(self, tmp_path, capsys, c):
        # A NaN c gave NaN bands: the walk's trader never traded, and the
        # run exited 0 with nothing depleted.
        payload = dict(EX1_CONFIG, source=SOURCES["walk"], adaptive={"c": c})
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["simulate", "--config", cfg, "--trials", "3", "--max-steps", "5000"]) == 1
        assert capsys.readouterr() == ("", "error: c must be finite and >= 0\n")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", "--config", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_source_kind(self, tmp_path, capsys):
        payload = dict(EX1_CONFIG, source={"kind": "lognormal"})
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["analyze", "--config", cfg]) == 1
        assert "lognormal" in capsys.readouterr().err

    def test_wrong_value_type(self, tmp_path, capsys):
        payload = dict(EX1_CONFIG, reserves0="lots")
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["analyze", "--config", cfg]) == 1
        assert "reserves0" in capsys.readouterr().err


LITERAL = {"kind": "literal", "prices": [95.0, 105.0]}
SOURCES = {
    "normal": EX1_CONFIG["source"],
    "walk": {"kind": "walk", "mu_step": 0.0, "sigma_step": 1.0, "p0": 100.0},
    "csv": {"kind": "csv", "path": "prices.csv"},
    "literal": LITERAL,
    "converging_spread": {"kind": "converging_spread", "pairs": 3},
}
SWEEP = {"axis": "delta", "values": [0.1]}
MATRIX = {"lambda_buy": 0.5, "lambda_sell": 0.5, "i": 2.0, "j": 2.0, "y_ratio": 1.2}


class TestConfigSchema:
    @pytest.mark.parametrize(
        "command, section",
        [
            ("simulate", "fees"),
            ("simulate", "run"),
            ("simulate", "adaptive"),
            ("simulate", "speculator"),
            ("sweep", "sweep"),
            ("theory", "theory"),
            ("analyze", "matrix"),
        ],
    )
    def test_unknown_key_names_section(self, tmp_path, capsys, command, section):
        payload = dict(EX1_CONFIG, sweep=SWEEP, matrix=MATRIX)
        payload[section] = dict(payload.get(section, {}), bogus=1)
        if command == "theory":
            payload["source"] = LITERAL
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown key 'bogus' in {section} (allowed: ")

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_unknown_source_key_names_kind(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path, "bad.json", dict(EX1_CONFIG, source=dict(SOURCES[kind], bogus=1)))
        assert main(["simulate", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown key 'bogus' in source({kind}) (allowed: ")

    @pytest.mark.parametrize(
        "command, section",
        [
            ("simulate", "fees"),
            ("simulate", "run"),
            ("simulate", "adaptive"),
            ("simulate", "speculator"),
            ("simulate", "source"),
            ("simulate", "sweep"),
            ("sweep", "sweep"),
            ("theory", "theory"),
            ("analyze", "matrix"),
        ],
    )
    def test_null_section_is_absent(self, tmp_path, capsys, command, section):
        base = dict(EX1_CONFIG, fees={}, run={"trials": 2}, adaptive={}, theory={}, matrix=None, sweep=SWEEP)
        if command == "theory":
            base["source"] = LITERAL
        results = []
        for payload in (dict(base, **{section: None}), {k: v for k, v in base.items() if k != section}):
            cfg = write_config(tmp_path, "cfg.json", payload)
            code = main([command, "--config", cfg])
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1]
        if section in ("source", "speculator") or command == "sweep":
            assert results[0][1].err == f"error: missing key {section!r} in config\n"

    @pytest.mark.parametrize("value", [0, False, "", []])
    @pytest.mark.parametrize("section", ["fees", "run", "adaptive", "theory"])
    def test_falsy_section_is_not_absent(self, tmp_path, capsys, section, value):
        # Only null stands for an absent section.
        cfg = write_config(tmp_path, "cfg.json", dict(EX1_CONFIG, **{section: value}))
        assert main(["analyze", "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {section} must be an object\n")

    @pytest.mark.parametrize(
        "command, change, message",
        [
            ("analyze", {"adaptive": {"c": float("nan"), "window": 1}}, "c must be finite and >= 0"),
            ("theory", {"mode": "bogus"}, "mode must be auto, analytic, or adaptive"),
            ("analyze", {"run": {"max_steps": 0}}, "max_steps must be >= 1"),
            ("theory", {"speculator": {"delta": 1.5}}, "delta must lie in (0, 1)"),
            ("ingest-stats", {"fees": {"eps_beta": 1.0}}, "eps_beta must lie in [0, 1)"),
            ("analyze", {"theory": {"boundary_tol": -1.0}}, "boundary_tol must be finite and >= 0"),
            ("simulate", {"theory": {"tail_fraction": 0.0}}, "tail_fraction must lie in (0, 1]"),
            ("theory", {"matrix": dict(MATRIX, i=float("inf"))}, "phase lengths i, j must be finite and positive"),
            ("analyze", {"sweep": {"axis": "bogus", "values": [1.0]}}, "unknown sweep axis 'bogus' (allowed: "),
        ],
        ids=["adaptive", "mode", "run", "speculator", "fees", "theory_tol", "theory_tail", "matrix", "sweep"],
    )
    def test_unused_section_is_checked(self, tmp_path, capsys, command, change, message):
        # The subcommand does not use the section, yet a bad value in it is
        # an error, as the config is read, not a silently ignored key.
        payload = dict(EX1_CONFIG, **change)
        if command in ("theory", "ingest-stats"):
            payload["source"] = LITERAL
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--trials", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "theory", "ingest-stats"])
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"sweep": {"axis": "delta", "values": [2.0, -1.0]}}, "delta must lie in (0, 1)"),
            ({"sweep": {"axis": "eps", "values": [0.01, 1.0]}}, "eps_beta must lie in [0, 1)"),
            ({"sweep": {"axis": "sigma_step", "values": [1.0]}}, "sigma_step sweep requires a walk source"),
            ({"source": LITERAL, "mode": "analytic"}, "analytic mode requires a distribution source"),
            ({"source": SOURCES["walk"], "mode": "analytic"}, "analytic mode requires a distribution source"),
        ],
        ids=["sweep_delta", "sweep_eps", "sweep_axis_source", "mode_literal", "mode_walk"],
    )
    def test_contradiction_rejected_by_every_subcommand(self, tmp_path, capsys, command, change, message):
        # A sweep value its axis rejects, or an analytic mode on a price
        # path, fails every subcommand with the message simulate and sweep
        # give, whether or not the subcommand sweeps or simulates.
        cfg = write_config(tmp_path, "bad.json", dict(EX1_CONFIG, **change))
        assert main([command, "--config", cfg, "--trials", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_sweep_values_checked_without_the_simulation_sections(self, tmp_path, capsys):
        # theory needs no speculator or reserves; the sweep values are
        # checked against stand-ins for them.
        payload = {"source": LITERAL, "sweep": {"axis": "lambda", "values": [0.0, 0.5]}}
        assert main(["theory", "--config", write_config(tmp_path, "ok.json", payload)]) == 0
        payload["sweep"]["values"] = [1.5]
        assert main(["theory", "--config", write_config(tmp_path, "bad.json", payload)]) == 1
        assert capsys.readouterr().err == "error: lambda_buy must lie in [0, 1]\n"

    @pytest.mark.parametrize("flag, key", [("--trials", "trials"), ("--max-steps", "max_steps")])
    def test_zero_count_override_rejected(self, tmp_path, capsys, flag, key):
        cfg = write_config(tmp_path, "alt.json", {"source": LITERAL})
        assert main(["theory", "--config", cfg, flag, "0"]) == 1
        assert capsys.readouterr() == ("", f"error: {key} must be >= 1\n")


# --out of the closed-form and series subcommands, recorded before numpy left
# their import path; they must keep these bytes.  The two analyze reports
# that reach the round matrix were re-pinned when critical_fee joined them:
# the new bytes are the old ones with that one column added.  The reference
# report was re-pinned again when the first passage's four columns joined
# it (log_drift ... first_passage_timesteps); the raw matrix has no price
# law, so no first passage, and kept its bytes.
@pytest.mark.parametrize(
    "command, payload, digest",
    [
        ("analyze", EX1_CONFIG, "8700940b13c255ec79c595679ba701650440b7ec9aeb3fb27f6d9c1ea4d52a4f"),
        (
            "analyze",
            {"matrix": {"lambda_buy": 0.3, "lambda_sell": 0.3, "i": 5.0, "j": 3.0, "y_ratio": 1.4},
             "reserves0": 100.0, "n0": 1.0},
            "1178d277e5c38d2f8e3fb5c656ad6042a8c70f709b71be60b65dbf93095dd32c",
        ),
        ("analyze", dict(EX1_CONFIG, speculator={}), "a04ab1071d425e4f65d85d337fb557c0d5b573913e3a3e7ca408148d104a1cd6"),
        (
            "theory",
            {"source": {"kind": "literal", "prices": [95.0, 105.0], "repeat": 10},
             "fees": {"eps_alpha": 0.04, "eps_beta": 0.04}},
            "d0c6372e7aa2fdf2c5dbd9c818623975914491e73c079b0c35ab19af17c272e7",
        ),
        (
            "ingest-stats",
            {"source": {"kind": "literal", "prices": [100.0, 103.5, 98.25, 101.0, 99.75, 104.125]}},
            "47e3e116638e9b7724a170e52928e0b7ac7df5ac394707bba7115466a369c1bb",
        ),
    ],
    ids=["analyze_reference", "analyze_matrix", "analyze_inert", "theory_two_point", "ingest_stats_literal"],
)
def test_report_out_is_pinned(tmp_path, capsys, command, payload, digest):
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "report.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


COLD_START = """
import json, sys
loaded = {}

def seen():
    return [name for name in ("numpy", "pegstress.parallel", "pegstress.renewal") if name in sys.modules]

import pegstress
loaded["import pegstress"] = seen()
from pegstress import cli
loaded["import pegstress.cli"] = seen()
for argv in (["analyze", "--config", "matrix.json"], ["analyze", "--config", "reference.json"],
             ["theory", "--config", "theory.json"], ["simulate", "--config", "reference.json", "--trials", "2"]):
    assert cli.main(argv) == 0, argv
    loaded[" ".join(argv[:3])] = seen()
print(json.dumps(loaded))
"""


def test_closed_form_runs_without_numpy(tmp_path):
    # A fresh interpreter: analyze and theory run on the standard library
    # alone; numpy loads with the first block of prices simulate draws.  A
    # process compiles each module it imports (no bytecode is written where
    # PYTHONDONTWRITEBYTECODE is set), so pegstress.parallel, which only
    # monte_carlo imports, must not load before a simulate, nor
    # pegstress.renewal before an analyze that reports a first passage (the
    # raw matrix reports none).
    write_config(tmp_path, "reference.json", EX1_CONFIG)
    write_config(tmp_path, "matrix.json", {"matrix": MATRIX, "reserves0": 100.0, "n0": 1.0})
    write_config(tmp_path, "theory.json", {"source": LITERAL, "fees": {"eps_alpha": 0.04, "eps_beta": 0.04}})
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import pegstress": [],
        "import pegstress.cli": [],
        "analyze --config matrix.json": [],
        "analyze --config reference.json": ["pegstress.renewal"],
        "theory --config theory.json": ["pegstress.renewal"],
        "simulate --config reference.json": ["numpy", "pegstress.parallel", "pegstress.renewal"],
    }
