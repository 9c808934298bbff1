"""Command-line front end.

Subcommands: analyze | simulate | theory | sweep | ingest-stats.  Inputs come
from a JSON config file (--config); --seed/--trials/--max-steps override the
corresponding config values.  Reports go to stdout as "key = value" lines;
--out writes the machine-readable version (csv or json per --format), one
record at a time, to a temporary file that replaces --out only on success.
Identical command line and seed produce byte-identical output files: floats
are serialised with their shortest round-trip representation and nothing
time- or path-dependent is emitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import NamedTuple

from .engine import AdaptiveSpec, SimConfig, SimResult, monte_carlo, sweep, sweep_configs
from .prices import NormalSpec, PriceSeries, WalkSpec, load_csv, step_stats
from .rounds import (
    build_round_matrix, critical_fee, discriminant, divergence_check, eigen, expected_depletion_rounds,
    round_matrix_from_params, rounds_to_timesteps, with_fees,
)
from .speculator import NoTradeInterval, SpeculatorParams, waiting_interval
from .theory import L_criterion, converging_spread_series, min_fee, stability_label, tail_spread

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Bad or missing configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# config parsing


class _Required(NamedTuple):
    conv: object  # the converter of a key the section must give


def _section(raw: dict, where: str, keys: dict):
    """Pull typed values out of a dict; unknown keys are errors.

    keys maps name -> converter, or _Required(converter) for a key that must
    be present.  The schema holds no defaults: a key left out is left out of
    the result, and the model it feeds applies its own.  A dict converter is
    a sub-section, parsed by this function; given as null, it counts as
    absent.  Any other value that is not an object, falsy or not, is an error.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(raw) - set(keys)
    if unknown:
        allowed = ", ".join(sorted(keys))
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where} (allowed: {allowed})")
    out = {}
    for name, conv in keys.items():
        if isinstance(conv, _Required):
            if name not in raw:
                raise ConfigError(f"missing key {name!r} in {where}")
            conv = conv.conv
        value = raw.get(name)
        if name not in raw or value is None and isinstance(conv, dict):
            continue
        try:
            out[name] = _section(value, name, conv) if isinstance(conv, dict) else conv(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {name!r} in {where}: {exc}") from None
    return out


def _given(section: dict, *names: str) -> dict:
    """section's entries among names: keyword arguments for a model that defaults the rest."""
    return {name: section[name] for name in names if name in section}


def _need(cfg: dict, key: str):
    """cfg[key], which this subcommand cannot do without."""
    if cfg.get(key) is None:
        raise ConfigError(f"missing key {key!r} in config")
    return cfg[key]


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


def _as_floats(v) -> list[float]:
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


# kind -> (keys besides "kind", build).  The builders look load_csv and
# converging_spread_series up at call time, so wrappers installed on this
# module's names (perfbench/tracing.py) see the calls.  No model defaults
# repeat, so the literal builder does.
_SOURCES = {
    "normal": (
        {"mu": _Required(_as_float), "sigma2": _Required(_as_float), "support_lo": _as_float,
         "support_hi": _as_float},
        lambda s: NormalSpec(**s),
    ),
    "walk": (
        {"mu_step": _Required(_as_float), "sigma_step": _Required(_as_float), "p0": _Required(_as_float),
         "floor": _as_float},
        lambda s: WalkSpec(**s),
    ),
    "csv": (
        {"path": _Required(_as_str), "timestamp_column": _as_str, "price_column": _as_str},
        lambda s: load_csv(**s),
    ),
    "literal": (
        {"prices": _Required(_as_floats), "repeat": _as_int},
        lambda s: PriceSeries(prices=tuple(s["prices"]) * s.get("repeat", 1), source="literal"),
    ),
    "converging_spread": (
        {"inv_lo": _as_float, "inv_hi": _as_float, "pairs": _Required(_as_int)},
        lambda s: converging_spread_series(**s),
    ),
}


def _parse_source(raw) -> NormalSpec | WalkSpec | PriceSeries | None:
    if raw is None:
        return None  # null: as if absent
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("source must be an object with a 'kind' key")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _SOURCES:
        raise ConfigError(f"unknown source kind {kind!r} (allowed: {', '.join(_SOURCES)})")
    keys, build = _SOURCES[kind]
    s = _section(raw, f"source({kind})", {"kind": _as_str, **keys})
    del s["kind"]
    try:
        return build(s)
    except ValueError as exc:  # the model's own message, not "bad value for 'source'"
        raise ConfigError(str(exc)) from None


# Top-level keys.  Sections that only some subcommands need are demanded
# there, with _need.
_CONFIG = {
    "source": _parse_source,
    "speculator": {"delta": _as_float, "lambda_buy": _as_float, "lambda_sell": _as_float},
    "mode": _as_str,
    "adaptive": {"c": _as_float, "window": _as_int},
    "fees": {"eps_alpha": _as_float, "eps_beta": _as_float},
    "reserves0": _as_float,
    "n0": _as_float,
    "m0": _as_float,
    "n0_grid": _as_floats,
    "run": {"max_steps": _as_int, "seed": _as_int, "trials": _as_int, "record_traces": _as_bool},
    "sweep": {"axis": _Required(_as_str), "values": _Required(_as_floats), "trials": _as_int},
    "theory": {"tail_fraction": _as_float, "boundary_tol": _as_float},
    "matrix": {"lambda_buy": _as_float, "lambda_sell": _as_float, "i": _Required(_as_float),
               "j": _Required(_as_float), "y_ratio": _Required(_as_float), "sell_mean": _as_float},
}


def _parse_config(raw: dict, args) -> dict:
    """The whole config, typed, with the command-line overrides applied.

    A key left out stays out, so the model it feeds applies its default.
    Every section given is checked, also for a subcommand that does not use
    it.  speculator and matrix come back as model objects; cfg["sim"] is the
    run's SimConfig, with unit reserves standing in for a missing reserves0,
    which _sim_config keeps from a run.
    """
    cfg = _section(raw, "config", _CONFIG)
    run, sw, t = cfg.setdefault("run", {}), cfg.get("sweep"), cfg.get("theory", {})
    for key in ("seed", "trials", "max_steps"):
        if getattr(args, key) is not None:
            run[key] = getattr(args, key)
    run.setdefault("trials", 1)  # monte_carlo has no default count
    # A model's own ValueError, like a ConfigError, is main's "error: ..." line.
    if "speculator" in cfg:
        cfg["speculator"] = SpeculatorParams(**cfg["speculator"])
    if "matrix" in cfg:
        cfg["matrix"] = round_matrix_from_params(**cfg["matrix"])
    # run's keys are SimConfig's, but for seed (its master_seed) and trials.
    engine = {"master_seed" if k == "seed" else k: v for k, v in run.items() if k != "trials"}
    cfg["sim"] = SimConfig(
        source=cfg.get("source"), speculator=cfg.get("speculator", SpeculatorParams()),
        reserves0=cfg.get("reserves0", 1.0), adaptive=AdaptiveSpec(**cfg.get("adaptive", {})),
        **_given(cfg, "n0", "m0", "mode"), **cfg.get("fees", {}), **engine,
    )
    for trials in (run["trials"], sw and sw.get("trials")):
        if trials is not None and trials < 1:
            raise ConfigError("trials must be >= 1")
    if "tail_fraction" in t and not 0.0 < t["tail_fraction"] <= 1.0:
        raise ConfigError("tail_fraction must lie in (0, 1]")
    if "boundary_tol" in t and not (math.isfinite(t["boundary_tol"]) and t["boundary_tol"] >= 0.0):
        raise ConfigError("boundary_tol must be finite and >= 0")
    if "n0_grid" in cfg:
        try:
            sweep_configs(cfg["sim"], "n0", cfg["n0_grid"])
        except ValueError as exc:
            raise ConfigError(f"bad value for 'n0_grid' in config: {exc}") from None
    if sw is not None:
        # Each value goes through the checks its axis gets in a sweep.
        sweep_configs(cfg["sim"], sw["axis"], sw["values"])
    return cfg


def _sim_config(cfg: dict) -> SimConfig:
    """cfg["sim"], once the sections it has stand-ins for are given."""
    for key in ("source", "speculator", "reserves0"):
        _need(cfg, key)
    return cfg["sim"]


def _price_series(cfg: dict, command: str) -> PriceSeries:
    source = _need(cfg, "source")
    if not isinstance(source, PriceSeries):
        raise ConfigError(f"{command} needs a concrete price series (csv, literal, or converging_spread)")
    return source


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
    print("\n".join(f"{k} = {_fmt(v)}" for k, v in report.items()))  # one write, not one a line


@contextmanager
def _out_records(args):
    """Yield write(row, header=None), which appends one record to --out; None
    without --out.

    A row is a dict, or its values in the order of header; a csv row given so
    has its bools as text already.  csv: the first row's keys as header, then
    a line per row; json: the bytes of json.dump(rows, indent=2) + newline.
    The records go to a temporary file beside --out that replaces it only if
    the block ends without an error.
    """
    if not args.out:
        yield None
        return
    tmp = f"{args.out}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", newline="")
    rows = csv.writer(fh, lineterminator="\n")
    count = 0

    def write(row, header=None) -> None:
        nonlocal count
        if args.format == "json":
            record = row if header is None else dict(zip(header, row))
            # json.dumps([record], indent=2) is "[" + "\n  {...}" + "\n]": the
            # middle is the record exactly as json.dump lays out an item of the list.
            fh.write(("," if count else "[") + json.dumps([record], indent=2)[1:-2])
        else:
            if header is None:
                # csv.writer already writes None as "" and floats by repr;
                # only bools need _fmt's text.
                header = row
                row = ["true" if v is True else "false" if v is False else v for v in row.values()]
            if not count:
                rows.writerow(header)
            rows.writerow(row)
        count += 1

    try:
        with fh:
            yield write
            if args.format == "json":
                fh.write("\n]\n" if count else "[]\n")
        os.replace(tmp, args.out)
    except BaseException:
        os.remove(tmp)
        raise
    print(f"wrote {args.out} ({count} records)", file=sys.stderr)


def _emit(rows: list[dict], args) -> None:
    """Print each report to the console and write it to --out if requested."""
    with _out_records(args) as write:
        for row in rows:
            _print_report(row)
            if write:
                write(row)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(cfg: dict, args) -> None:
    _need(cfg, "reserves0")
    if "n0_grid" in cfg:
        raise ConfigError("analyze answers for one n0: 'n0_grid' needs simulate")
    sim = cfg["sim"]
    if sim.mode == "adaptive":
        raise ConfigError("analyze models the fixed-band trader: 'mode' adaptive needs simulate")
    report: dict = {}
    passage: dict = {}  # the first passage's fields, which need a price law

    mat = cfg.get("matrix")
    if mat is None:
        source = _need(cfg, "source")
        if not isinstance(source, NormalSpec):
            raise ConfigError("analytic mode requires a distribution source (kind 'normal')")
        params = _need(cfg, "speculator")
        report.update(mu=source.mu, sigma2=source.sigma2, **vars(params))
        try:
            interval = waiting_interval(source, params)
        except NoTradeInterval as exc:
            # No band is worth trading: the trader holds, as the engine's
            # inert trader does, and the reserves never move.
            report.update(
                outcome="never depletes", reason=str(exc), depletion_rounds=None, depletion_timesteps=None
            )
            _emit([report], args)
            return
        mat = build_round_matrix(source, interval, params)
        report.update(vars(interval))
        passage = dict.fromkeys(("log_drift", "first_passage_outcome", "first_passage_rounds",
                                 "first_passage_timesteps"))
        if params.lambda_buy == params.lambda_sell == 0.0 and sim.m0 == 0.0 < sim.n0:  # the all-in trader
            from .renewal import first_passage  # here, so importing the package compiles none of it
            fp = first_passage(source, interval, sim.n0, sim.reserves0, sim.eps_alpha, sim.eps_beta)
            outcome = "not certain" if fp.rounds is None else "depletes"  # log_drift <= 0: no mean time
            passage.update(log_drift=fp.log_drift, first_passage_outcome=outcome, first_passage_rounds=fp.rounds,
                           first_passage_timesteps=fp.timesteps)

    x0 = (sim.m0, sim.n0)
    fee = critical_fee(mat, x0)
    mat = with_fees(mat, sim.eps_alpha, sim.eps_beta)
    sys_ = eigen(mat, x0)
    diverges = divergence_check(mat, x0)
    k = expected_depletion_rounds(sys_, sim.reserves0, sim.n0)
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
        critical_fee=fee,
    )
    if math.isinf(k):
        report["outcome"] = "never depletes"
        report["depletion_rounds"] = None
        report["depletion_timesteps"] = None
    else:
        report["outcome"] = "depletes"
        report["depletion_rounds"] = k
        report["depletion_timesteps"] = rounds_to_timesteps(k, mat.i, mat.j)
    report.update(passage)
    _emit([report], args)


_TRIAL_FIELDS = (
    "n0", "trial", "seed", "depleted", "depletion_step", "rounds", "r_min", "final_m", "final_n", "steps",
    "clamp_count",
)
_TRACED_FIELDS = (*_TRIAL_FIELDS, "traces")  # record_traces, which --out takes only as json


def _trial_record(n0: float, idx: int, res: SimResult, bools) -> tuple[tuple, tuple]:
    """A trial's --out record, as (values, header); bools[res.depleted] stands
    for depleted."""
    values = (
        n0, idx, res.seed, bools[res.depleted], res.depletion_step, res.rounds, res.r_min, res.final_m,
        res.final_n, res.steps, res.clamp_count,
    )
    if res.traces is None:
        return values, _TRIAL_FIELDS
    return (*values, vars(res.traces)), _TRACED_FIELDS  # p, delta, reserves, n, m; read, never changed


def cmd_simulate(cfg: dict, args) -> None:
    """monte_carlo at the config's n0, or a sweep over n0_grid as one job:
    a summary per n0 on the console, and --out's rows n0 by n0."""
    config = _sim_config(cfg)
    trials, n0s = cfg["run"]["trials"], cfg.get("n0_grid") or [config.n0]
    if config.record_traces and not (args.out and args.format == "json"):
        raise ConfigError("record_traces output requires --out with --format json")
    bools = ("false", "true") if args.format == "csv" else (False, True)
    with _out_records(args) as write:
        # Each trial's row is written as it comes in; without --out there is
        # no sink and no per-trial record.  A grid is one sweep over n0; one
        # point stays monte_carlo's, which perfbench/tracing.py times by name.
        sink = write and (lambda p, idx, res: write(*_trial_record(n0s[p], idx, res, bools)))
        summaries = sweep(config, "n0", n0s, trials, sink) if "n0_grid" in cfg else [
            monte_carlo(config, trials, sink and (lambda idx, res: sink(0, idx, res)))]
        for n0, summary in zip(n0s, summaries):
            _print_report({"n0": n0, **vars(summary)})


def cmd_theory(cfg: dict, args) -> None:
    source = _price_series(cfg, "theory")
    t, sim = cfg.get("theory", {}), cfg["sim"]
    spread = tail_spread(source, **_given(t, "tail_fraction"))
    value = L_criterion(sim.eps_alpha, sim.eps_beta, spread)
    label = stability_label(sim.eps_alpha, sim.eps_beta, spread, **_given(t, "boundary_tol"))
    report = {
        "series_len": len(source),
        "tail_fraction": spread.tail_fraction,
        "inv_liminf_est": spread.inv_liminf_est,
        "inv_limsup_est": spread.inv_limsup_est,
        "eps_alpha": sim.eps_alpha,
        "eps_beta": sim.eps_beta,
        "L": value,
        "classification": label,
        "min_fee": min_fee(spread),
    }
    _emit([report], args)


def cmd_sweep(cfg: dict, args) -> None:
    config = _sim_config(cfg)
    sw = _need(cfg, "sweep")
    if config.record_traces:
        raise ConfigError("sweep writes no per-trial records: 'record_traces' in run needs simulate")
    if "n0_grid" in cfg:
        raise ConfigError("sweep runs one n0: 'n0_grid' needs simulate")
    # --trials beats sweep.trials, which beats run.trials.
    trials = sw["trials"] if args.trials is None and "trials" in sw else cfg["run"]["trials"]
    rows = []
    for value, summary in zip(sw["values"], sweep(config, sw["axis"], sw["values"], trials)):
        row = {"axis": sw["axis"], "value": value, **vars(summary)}
        mean = summary.mean_depletion_steps
        row["log10_mean_depletion_steps"] = math.log10(mean) if mean else None
        rows.append(row)
    _emit(rows, args)


def cmd_ingest_stats(cfg: dict, args) -> None:
    source = _price_series(cfg, "ingest-stats")
    walk = step_stats(source)
    report = {
        "rows": len(source),
        "p0": walk.p0,
        "mu_step": walk.mu_step,
        "sigma_step": walk.sigma_step,
    }
    _emit([report], args)


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
        ("analyze", cmd_analyze),
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
        args.fn(_parse_config(_load_config(args.config), args), args)
    except (ValueError, OSError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
