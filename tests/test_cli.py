"""End-to-end command-line tests: every subcommand through main(argv).

Console output is "key = value" lines; --out writes csv or json.  The tests
parse both and cross-check them, including the byte-identical reproducibility
guarantee for repeated invocations.
"""

import csv
import json

import pytest

from pegstress.cli import main


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

    @pytest.mark.parametrize("fees", [{"eps_alpha": 0.05}, {"eps_beta": 0.01}])
    def test_nonzero_fees_rejected(self, tmp_path, capsys, fees):
        cfg = write_config(tmp_path, "fees.json", dict(EX1_CONFIG, fees=fees))
        assert main(["analyze", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "fee-free" in err and "simulate" in err

    def test_zero_fees_accepted(self, tmp_path, capsys):
        fees = {"eps_alpha": 0.0, "eps_beta": 0.0}
        cfg = write_config(tmp_path, "fees.json", dict(EX1_CONFIG, fees=fees))
        assert main(["analyze", "--config", cfg]) == 0
        report = parse_console(capsys.readouterr().out)
        assert float(report["depletion_timesteps"]) == pytest.approx(227.0, rel=2e-2)

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
        assert "concrete price series" in capsys.readouterr().err


class TestErrorPlumbing:
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
