"""Command-line front end.

Subcommands: analyze | simulate | theory | sweep | ingest-stats.  Inputs come
from a JSON config file (--config); --seed/--trials/--max-steps override the
corresponding config values.  Reports go to stdout as "key = value" lines;
--out writes the machine-readable version (csv or json per --format).
Identical command line and seed produce byte-identical output files: floats
are serialised with their shortest round-trip representation and nothing
time- or path-dependent is emitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

from .engine import AdaptiveSpec, MonteCarloSummary, SimConfig, SWEEP_AXES, monte_carlo, sweep
from .prices import NormalSpec, PriceSeries, WalkSpec, load_csv, step_stats
from .rounds import (
    build_round_matrix,
    discriminant,
    divergence_check,
    eigen,
    expected_depletion_rounds,
    round_matrix_from_params,
    rounds_to_timesteps,
)
from .speculator import SpeculatorParams, waiting_interval
from .theory import (
    L_criterion,
    converging_spread_series,
    min_fee,
    stability_label,
    tail_spread,
)

__all__ = ["main", "ConfigError"]

_REQUIRED = object()


class ConfigError(ValueError):
    """Bad or missing configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# config parsing


def _section(raw: dict, where: str, keys: dict):
    """Pull typed values out of a dict; unknown keys are errors.

    keys maps name -> (converter, default); default _REQUIRED means the key
    must be present.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(raw) - set(keys)
    if unknown:
        allowed = ", ".join(sorted(keys))
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where} (allowed: {allowed})")
    out = {}
    for name, (conv, default) in keys.items():
        if name in raw:
            try:
                out[name] = conv(raw[name])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {name!r} in {where}: {exc}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"missing key {name!r} in {where}")
        else:
            out[name] = default
    return out


def _as_float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _as_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _as_str(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _as_bool(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"expected true/false, got {v!r}")
    return v


def _as_float_list(v) -> list[float]:
    if not isinstance(v, list) or not v:
        raise ValueError("expected a non-empty list of numbers")
    return [_as_float(x) for x in v]


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return raw


def _parse_source(raw) -> NormalSpec | WalkSpec | PriceSeries:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("source must be an object with a 'kind' key")
    kind = raw["kind"]
    if kind == "normal":
        s = _section(
            raw,
            "source(normal)",
            {
                "kind": (_as_str, _REQUIRED),
                "mu": (_as_float, _REQUIRED),
                "sigma2": (_as_float, _REQUIRED),
                "support_lo": (_as_float, math.nan),
                "support_hi": (_as_float, math.nan),
            },
        )
        return NormalSpec(mu=s["mu"], sigma2=s["sigma2"], support_lo=s["support_lo"], support_hi=s["support_hi"])
    if kind == "walk":
        s = _section(
            raw,
            "source(walk)",
            {
                "kind": (_as_str, _REQUIRED),
                "mu_step": (_as_float, _REQUIRED),
                "sigma_step": (_as_float, _REQUIRED),
                "p0": (_as_float, _REQUIRED),
                "floor": (_as_float, 1e-6),
            },
        )
        return WalkSpec(mu_step=s["mu_step"], sigma_step=s["sigma_step"], p0=s["p0"], floor=s["floor"])
    if kind == "csv":
        s = _section(
            raw,
            "source(csv)",
            {
                "kind": (_as_str, _REQUIRED),
                "path": (_as_str, _REQUIRED),
                "timestamp_column": (_as_str, "timestamp"),
                "price_column": (_as_str, "price"),
            },
        )
        return load_csv(s["path"], s["timestamp_column"], s["price_column"])
    if kind == "literal":
        s = _section(
            raw,
            "source(literal)",
            {
                "kind": (_as_str, _REQUIRED),
                "prices": (_as_float_list, _REQUIRED),
                "repeat": (_as_int, 1),
            },
        )
        if s["repeat"] < 1:
            raise ConfigError("repeat must be >= 1 in source(literal)")
        return PriceSeries(prices=tuple(s["prices"]) * s["repeat"], source="literal")
    if kind == "converging_spread":
        s = _section(
            raw,
            "source(converging_spread)",
            {
                "kind": (_as_str, _REQUIRED),
                "inv_lo": (_as_float, 1.0),
                "inv_hi": (_as_float, 2.0),
                "pairs": (_as_int, _REQUIRED),
            },
        )
        return converging_spread_series(s["inv_lo"], s["inv_hi"], s["pairs"])
    raise ConfigError(
        f"unknown source kind {kind!r} (allowed: normal, walk, csv, literal, converging_spread)"
    )


_TOP_KEYS = {
    "source": (lambda v: v, None),
    "speculator": (lambda v: v, None),
    "mode": (_as_str, "auto"),
    "adaptive": (lambda v: v, None),
    "fees": (lambda v: v, None),
    "reserves0": (_as_float, None),
    "n0": (_as_float, 1.0),
    "m0": (_as_float, 0.0),
    "n0_grid": (_as_float_list, None),
    "run": (lambda v: v, None),
    "sweep": (lambda v: v, None),
    "theory": (lambda v: v, None),
    "matrix": (lambda v: v, None),
}


def _parse_common(raw: dict, args) -> dict:
    top = _section(raw, "config", _TOP_KEYS)
    out: dict = {}
    out["fees"] = _section(
        top["fees"] or {},
        "fees",
        {"eps_alpha": (_as_float, 0.0), "eps_beta": (_as_float, 0.0)},
    )
    run = _section(
        top["run"] or {},
        "run",
        {
            "max_steps": (_as_int, 100_000),
            "seed": (_as_int, 0),
            "trials": (_as_int, 1),
            "record_traces": (_as_bool, False),
        },
    )
    if args.seed is not None:
        run["seed"] = args.seed
    if args.trials is not None:
        run["trials"] = args.trials
    if args.max_steps is not None:
        run["max_steps"] = args.max_steps
    out["run"] = run
    out["top"] = top
    return out


def _build_sim_config(raw: dict, args, need_speculator: bool = True) -> tuple[SimConfig, int, dict]:
    common = _parse_common(raw, args)
    top = common["top"]
    if top["source"] is None:
        raise ConfigError("missing key 'source' in config")
    source = _parse_source(top["source"])
    spec_raw = top["speculator"]
    if spec_raw is None:
        if need_speculator:
            raise ConfigError("missing key 'speculator' in config")
        spec_raw = {}
    s = _section(
        spec_raw,
        "speculator",
        {
            "delta": (_as_float, 0.5),
            "lambda_buy": (_as_float, 0.0),
            "lambda_sell": (_as_float, 0.0),
        },
    )
    speculator = SpeculatorParams(delta=s["delta"], lambda_buy=s["lambda_buy"], lambda_sell=s["lambda_sell"])
    a = _section(top["adaptive"] or {}, "adaptive", {"c": (_as_float, 3.5), "window": (_as_int, 168)})
    if top["reserves0"] is None:
        raise ConfigError("missing key 'reserves0' in config")
    cfg = SimConfig(
        source=source,
        speculator=speculator,
        reserves0=top["reserves0"],
        n0=top["n0"],
        m0=top["m0"],
        eps_alpha=common["fees"]["eps_alpha"],
        eps_beta=common["fees"]["eps_beta"],
        mode=top["mode"],
        adaptive=AdaptiveSpec(c=a["c"], window=a["window"]),
        max_steps=common["run"]["max_steps"],
        master_seed=common["run"]["seed"],
        record_traces=common["run"]["record_traces"],
    )
    return cfg, common["run"]["trials"], common


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _print_report(report: dict) -> None:
    for k, v in report.items():
        print(f"{k} = {_fmt(v)}")


def _write_rows(path: str, rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(rows[0].keys()) if rows else []
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in header])


def _emit(report_rows, args, console_rows=None) -> None:
    """Print to console; write --out in --format if requested."""
    rows = report_rows if isinstance(report_rows, list) else [report_rows]
    if console_rows is None:
        console_rows = rows
    for row in console_rows:
        _print_report(row)
    if args.out:
        _write_rows(args.out, rows, args.format)
        print(f"wrote {args.out} ({len(rows)} records)", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _matrix_from_config(raw_matrix):
    s = _section(
        raw_matrix,
        "matrix",
        {
            "lambda_buy": (_as_float, 0.0),
            "lambda_sell": (_as_float, 0.0),
            "i": (_as_float, _REQUIRED),
            "j": (_as_float, _REQUIRED),
            "y_ratio": (_as_float, _REQUIRED),
            "sell_mean": (_as_float, 1.0),
        },
    )
    return round_matrix_from_params(
        lambda_buy=s["lambda_buy"],
        lambda_sell=s["lambda_sell"],
        i=s["i"],
        j=s["j"],
        y_ratio=s["y_ratio"],
        sell_mean=s["sell_mean"],
    )


def cmd_analyze(raw: dict, args) -> dict:
    common = _parse_common(raw, args)
    top = common["top"]
    if top["reserves0"] is None:
        raise ConfigError("missing key 'reserves0' in config")
    reserves0, n0, m0 = top["reserves0"], top["n0"], top["m0"]
    if any(common["fees"].values()):
        raise ConfigError(
            "analyze: the closed form is fee-free and cannot model non-zero 'fees'; "
            "use simulate for a fee schedule"
        )
    report: dict = {}

    if top["matrix"] is not None:
        mat = _matrix_from_config(top["matrix"])
    else:
        if top["source"] is None:
            raise ConfigError("missing key 'source' in config")
        source = _parse_source(top["source"])
        if not isinstance(source, NormalSpec):
            raise ConfigError("analytic mode requires a distribution source (kind 'normal')")
        if top["speculator"] is None:
            raise ConfigError("missing key 'speculator' in config")
        s = _section(
            top["speculator"],
            "speculator",
            {
                "delta": (_as_float, _REQUIRED),
                "lambda_buy": (_as_float, 0.0),
                "lambda_sell": (_as_float, 0.0),
            },
        )
        params = SpeculatorParams(delta=s["delta"], lambda_buy=s["lambda_buy"], lambda_sell=s["lambda_sell"])
        interval = waiting_interval(source, params)
        mat = build_round_matrix(source, interval, params)
        report.update(
            mu=source.mu,
            sigma2=source.sigma2,
            delta=params.delta,
            lambda_buy=params.lambda_buy,
            lambda_sell=params.lambda_sell,
            s1=interval.s1,
            y1=interval.y1,
            y2=interval.y2,
            x1=interval.x1,
            x2=interval.x2,
        )

    sys_ = eigen(mat, (m0, n0))
    diverges = divergence_check(mat, (m0, n0))
    k = expected_depletion_rounds(sys_, reserves0, n0)
    report.update(
        i=mat.i,
        j=mat.j,
        y_ratio=mat.y_ratio,
        A=mat.A,
        B=mat.B,
        C=mat.C,
        D=mat.D,
        discriminant=discriminant(mat),
        a1=sys_.a1,
        a2=sys_.a2,
        c1_m=sys_.c1[0],
        c1_n=sys_.c1[1],
        c2_m=sys_.c2[0],
        c2_n=sys_.c2[1],
        diverges=diverges,
    )
    if math.isinf(k):
        report["outcome"] = "never depletes" if not diverges else "no depletion within horizon"
        report["depletion_rounds"] = None
        report["depletion_timesteps"] = None
    else:
        report["outcome"] = "depletes"
        report["depletion_rounds"] = k
        report["depletion_timesteps"] = rounds_to_timesteps(k, mat.i, mat.j)
    return report


def _summary_rows(summary: MonteCarloSummary, extra: dict) -> dict:
    row = dict(extra)
    row.update(
        trials=summary.trials,
        depleted_count=summary.depleted_count,
        fraction_depleted=summary.fraction_depleted,
        mean_depletion_steps=summary.mean_depletion_step,
        std_depletion_steps=summary.std_depletion_step,
        mean_depletion_rounds=summary.mean_depletion_rounds,
        r_min_mean=summary.r_min_mean,
        r_min_min=summary.r_min_min,
        r_min_max=summary.r_min_max,
    )
    return row


def cmd_simulate(raw: dict, args) -> None:
    cfg, trials, common = _build_sim_config(raw, args)
    n0_grid = common["top"]["n0_grid"] or [cfg.n0]
    if cfg.record_traces and args.out and args.format != "json":
        raise ConfigError("record_traces output requires --format json")

    rows: list[dict] = []
    console: list[dict] = []
    for n0 in n0_grid:
        sub = replace(cfg, n0=n0)
        summary = monte_carlo(sub, trials, keep_results=True)
        console.append(_summary_rows(summary, {"n0": n0}))
        for idx, res in enumerate(summary.results):
            row = {
                "n0": n0,
                "trial": idx,
                "seed": res.seed,
                "depleted": res.depleted,
                "depletion_step": res.depletion_step,
                "rounds": res.rounds,
                "r_min": res.r_min,
                "final_m": res.final_m,
                "final_n": res.final_n,
                "steps": res.steps,
                "clamp_count": res.clamp_count,
            }
            if cfg.record_traces and res.traces is not None and args.format == "json":
                row["traces"] = {
                    "p": list(res.traces.p),
                    "delta": list(res.traces.delta),
                    "reserves": list(res.traces.reserves),
                    "n": list(res.traces.n),
                    "m": list(res.traces.m),
                }
            rows.append(row)
    _emit(rows, args, console_rows=console)


def cmd_theory(raw: dict, args) -> None:
    common = _parse_common(raw, args)
    top = common["top"]
    if top["source"] is None:
        raise ConfigError("missing key 'source' in config")
    source = _parse_source(top["source"])
    if isinstance(source, (NormalSpec, WalkSpec)):
        raise ConfigError("theory needs a concrete price series (csv, literal, or converging_spread)")
    t = _section(
        top["theory"] or {},
        "theory",
        {"tail_fraction": (_as_float, 0.5), "boundary_tol": (_as_float, 1e-12)},
    )
    fees = common["fees"]
    spread = tail_spread(source, t["tail_fraction"])
    value = L_criterion(fees["eps_alpha"], fees["eps_beta"], spread)
    label = stability_label(fees["eps_alpha"], fees["eps_beta"], spread, boundary_tol=t["boundary_tol"])
    report = {
        "series_len": len(source),
        "tail_fraction": spread.tail_fraction,
        "inv_liminf_est": spread.inv_liminf_est,
        "inv_limsup_est": spread.inv_limsup_est,
        "eps_alpha": fees["eps_alpha"],
        "eps_beta": fees["eps_beta"],
        "L": value,
        "classification": label,
        "min_fee": min_fee(spread),
    }
    _emit(report, args)


def cmd_sweep(raw: dict, args) -> None:
    cfg, trials, common = _build_sim_config(raw, args)
    sw_raw = common["top"]["sweep"]
    if sw_raw is None:
        raise ConfigError("missing key 'sweep' in config")
    sw = _section(
        sw_raw,
        "sweep",
        {
            "axis": (_as_str, _REQUIRED),
            "values": (_as_float_list, _REQUIRED),
            "trials": (_as_int, None),
        },
    )
    if sw["axis"] not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {sw['axis']!r} (allowed: {', '.join(SWEEP_AXES)})")
    if args.trials is not None:
        trials = args.trials
    elif sw["trials"] is not None:
        trials = sw["trials"]
    points = sweep(cfg, sw["axis"], sw["values"], trials)
    rows = []
    for pt in points:
        row = _summary_rows(pt.summary, {"axis": pt.axis, "value": pt.value})
        mean = pt.summary.mean_depletion_step
        row["log10_mean_depletion_steps"] = math.log10(mean) if mean else None
        rows.append(row)
    _emit(rows, args)


def cmd_ingest_stats(raw: dict, args) -> None:
    common = _parse_common(raw, args)
    top = common["top"]
    if top["source"] is None:
        raise ConfigError("missing key 'source' in config")
    source = _parse_source(top["source"])
    if not isinstance(source, PriceSeries):
        raise ConfigError("ingest-stats needs a concrete price series (csv or literal)")
    walk = step_stats(source)
    report = {
        "rows": len(source),
        "p0": walk.p0,
        "mu_step": walk.mu_step,
        "sigma_step": walk.sigma_step,
    }
    _emit(report, args)


# ---------------------------------------------------------------------------
# entry point


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to JSON config file")
    p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    p.add_argument("--out", default=None, help="write machine-readable output here")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output file format")
    p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials (overrides config)")
    p.add_argument("--max-steps", type=int, default=None, help="simulation horizon (overrides config)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pegstress",
        description="Stress-testing toolkit for price-window stablecoin mechanisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("analyze", None),
        ("simulate", cmd_simulate),
        ("theory", cmd_theory),
        ("sweep", cmd_sweep),
        ("ingest-stats", cmd_ingest_stats),
    ):
        sp = sub.add_parser(name)
        _add_common_args(sp)
        sp.set_defaults(fn=fn)
    args = parser.parse_args(argv)

    try:
        raw = _load_config(args.config)
        if args.command == "analyze":
            report = cmd_analyze(raw, args)
            _emit(report, args)
        else:
            args.fn(raw, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
