"""pegstress benchmark: study workloads sent through the CLI, in-process.

    python3 perfbench/run.py --workload mc_reference --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root; the package is imported from ``src/`` beside
this directory, never from an installed copy.  Each workload is a closed loop:
one client in one process, sending its next request when the previous one
returns.  Set-up (import plus input generation) runs SETUP_REPEATS times in
fresh processes and reports the median.  Then whole passes of requests run
until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics.  Its times are scaled to a
quiet machine's speed by a sampler that times a fixed block of work ten
times a second throughout the run (see calibrate.py).  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, averaged per
traced pass, plus ``trace.overhead_s``: the mean traced pass minus the mean
untraced pass.  Every metric is printed as ``name = value unit``; the
last line of stdout is one JSON object.  The exit code is 1 if any request
failed a gate, so the run is not correct.

Details of each run (requests, latencies, ``--out`` digests, spans and the
environment) go to ``perfbench/out/results/``.  ``--out`` digests are also
kept in ``perfbench/out/digests.json``, keyed by a hash of the package and
benchmark sources; a digest that differs from an earlier run of the same code
fails the request.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import Sampler, slowdown_now
from tracing import Tracer, summarize
from workloads import WORKLOADS, GateError, Reply

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.request_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "engine.monte_carlo_s": "s",
    "engine.sweep_s": "s",
    "engine.self_s": "s",
    "engine.trials": "count",
    "engine.steps": "count",
    "engine.steps_per_self_s": "steps/s",
    "mechanism.apply_trade_s": "s",
    "mechanism.apply_trade_calls": "count",
    "speculator.waiting_interval_s": "s",
    "speculator.waiting_interval_calls": "count",
    "speculator.band_repeat_share": "ratio",
    "rounds.build_round_matrix_s": "s",
    "rounds.eigen_s": "s",
    "rounds.expected_depletion_rounds_s": "s",
    "rounds.expected_depletion_rounds_calls": "count",
    "rounds.horizon_limited": "count",
    "prices.load_csv_s": "s",
    "prices.load_csv_rows": "count",
    "prices.step_stats_s": "s",
    "theory.tail_spread_s": "s",
    "theory.greedy_threshold_profit_s": "s",
    "theory.run_omniscient_s": "s",
    "trace.overhead_s": "s",
}


def import_pegstress():
    """Import pegstress from this checkout's src/ and nowhere else."""
    pkg = SRC / "pegstress"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no pegstress package at {pkg}")
    sys.path.insert(0, str(SRC))
    import pegstress

    if Path(pegstress.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported pegstress from {pegstress.__file__}, not {pkg}")
    return pegstress


def code_id() -> str:
    """Hash of the package and benchmark sources: same id, same outputs."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "code_id": code_id(),
    }


# ---------------------------------------------------------------------------
# set-up


def setup_child(name: str, seed: int, into: Path) -> int:
    """One timed set-up in a fresh process: import, then write the inputs."""
    t0 = time.perf_counter()
    import_pegstress()
    manifest = WORKLOADS[name]().setup(into, seed)
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "slowdown": slowdown_now(), "manifest": manifest}))
    return 0


def set_up(name: str, seed: int, work: Path) -> tuple[float, float, dict]:
    """Median set-up time over SETUP_REPEATS fresh processes, scaled and as
    measured; keeps the first process's inputs."""
    times, scaled, manifest = [], [], None
    for k in range(SETUP_REPEATS):
        into = work if k == 0 else work.with_name(f"{work.name}-setup{k}")
        into.mkdir(parents=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--setup-into", str(into)],
                capture_output=True, text=True, timeout=170,
            )
        finally:
            if k:
                shutil.rmtree(into, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr.strip()}")
        result = json.loads(proc.stdout.splitlines()[-1])
        times.append(result["seconds"])
        scaled.append(result["seconds"] / result["slowdown"])
        manifest = manifest or result["manifest"]
    return statistics.median(scaled), statistics.median(times), manifest


# ---------------------------------------------------------------------------
# requests


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def execute(req, cli, tracer: Tracer | None, clock) -> dict:
    """Send one request, time it by clock(), and apply its gates."""
    reply = Reply()
    rec = {"key": req.key, "ok": True, "why": ""}
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.span if tracer else _plain_call
    t0 = clock()
    try:
        if req.argv is not None:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                reply.rc = span("cli.request", cli.main, req.argv)
        else:
            reply.value = req.call(span)
    except SystemExit as exc:  # argparse rejects a command line this way
        reply.rc = exc.code
    except Exception:  # a crash fails this request; the loop goes on
        rec.update(ok=False, why=traceback.format_exc(limit=3))
    rec["latency_s"] = clock() - t0
    reply.stdout, reply.stderr = stdout.getvalue(), stderr.getvalue()
    rec["out_bytes"] = len(reply.stdout.encode())
    try:
        if rec["ok"]:
            rec["facts"] = req.check(reply)
            if req.out is not None:
                data = req.out.read_bytes()
                rec["out_bytes"] += len(data)
                rec["digest"] = hashlib.sha256(data).hexdigest()
    except (GateError, KeyError, ValueError, OSError) as exc:
        rec.update(ok=False, why=f"{type(exc).__name__}: {exc}")
    finally:
        if req.out is not None:
            req.out.unlink(missing_ok=True)
    return rec


def run_pass(workload, work: Path, seed: int, manifest: dict, index: int, cli, traced: bool,
             sampler: Sampler) -> dict:
    reqs = workload.requests(work, seed, manifest, index)
    tracer = Tracer() if traced else None
    records = []
    if tracer:
        tracer.install()
    try:
        for req in reqs:
            first = len(sampler.samples)
            records.append(execute(req, cli, tracer, sampler.now))
            if sampler.samples:
                records[-1]["slowdown"] = sampler.slowdown(first)
    finally:
        if tracer:
            tracer.restore()
    return {
        "index": index,
        "traced": traced,
        "wall_s": sum(r["latency_s"] for r in records),
        "records": records,
        "spans": tracer.spans if tracer else [],
    }


def check_digests(name: str, passes: list[dict], code: str) -> None:
    """Fail requests whose --out digest differs from an earlier one of the same code."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    known = store.setdefault(code, {}).setdefault(name, {})
    for p in passes:
        for rec in p["records"]:
            if "digest" not in rec:
                continue
            want = known.setdefault(rec["key"], rec["digest"])
            if want != rec["digest"]:
                rec.update(ok=False, why=f"--out digest {rec['digest']} != {want} from an earlier run")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) at the highest percentile with >= 10 requests beyond it."""
    ordered = sorted(latencies)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        beyond = int(len(ordered) * (100.0 - pct) / 100.0)
        if beyond >= 10:
            return pct, ordered[len(ordered) - beyond - 1]
    return None


def end_to_end(passes: list[dict], setup: tuple[float, float], slowdown: float) -> tuple[dict, dict]:
    """Times are scaled to the quiet machine's speed (see calibrate.py)."""
    records = [r for p in passes for r in p["records"]]
    latencies = [r["latency_s"] for r in records]
    scaled = [r["latency_s"] / r["slowdown"] for r in records]
    metrics = {
        "setup_s": setup[0],
        "wall_s": math.fsum(scaled) / len(passes),
        "req_p50_ms": 1e3 * statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sim = [r for r in records if r.get("facts", {}).get("steps")]
    extra = {
        "slowdown": (slowdown, "ratio"),
        "setup_unscaled_s": (setup[1], "s"),
        "wall_unscaled_s": (statistics.fmean(p["wall_s"] for p in passes), "s"),
        "req_p50_unscaled_ms": (1e3 * statistics.median(latencies), "ms"),
        "requests": (len(records), "count"),
        "passes": (len(passes), "count"),
        "fail_ratio": (sum(not r["ok"] for r in records) / len(records), "ratio"),
        "rounds.horizon_limited": (sum(r.get("facts", {}).get("horizon_limited", 0) for r in records), "count"),
    }
    t = tail(latencies)
    if t:
        extra[f"req_tail_ms (p{t[0]:g} of {len(latencies)})"] = (1e3 * t[1], "ms")
    if sim:
        extra["steps_per_s"] = (sum(r["facts"]["steps"] for r in sim) / sum(r["latency_s"] for r in sim), "steps/s")
    return metrics, extra


def band_repeat_share(passes: list[dict]) -> float:
    """Share of analyze requests whose (mu, sigma2, delta) band came earlier in the run."""
    seen, repeats, analyze = set(), 0, 0
    for p in passes:
        for rec in p["records"]:
            if "band" not in rec.get("facts", {}):
                continue
            analyze += 1
            band = rec["facts"]["band"]
            if band is not None:
                repeats += band in seen
                seen.add(band)
    return repeats / analyze if analyze else 0.0


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    tot: dict[str, list] = {}
    for p in traced:
        for name, row in summarize(p["spans"]).items():
            acc = tot.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v

    def get(name, field):
        return tot.get(name, [0, 0.0, 0.0, 0])[field] / n

    records = [r for p in traced for r in p["records"]]
    facts = [r.get("facts", {}) for r in records]
    steps = sum(f.get("steps", 0) for f in facts) / n
    engine_self = get("engine.monte_carlo", 2) + get("engine.sweep", 2)
    untraced_wall = statistics.fmean(p["wall_s"] for p in passes if not p["traced"])
    return {
        "cli.request_s": get("cli.request", 1),
        "cli.self_s": get("cli.request", 2),
        "cli.out_bytes": sum(r["out_bytes"] for r in records) / n,
        "engine.monte_carlo_s": get("engine.monte_carlo", 1),
        "engine.sweep_s": get("engine.sweep", 1),
        "engine.self_s": engine_self,
        "engine.trials": get("engine.monte_carlo", 3),
        "engine.steps": steps,
        "engine.steps_per_self_s": steps / engine_self if engine_self else 0.0,
        "mechanism.apply_trade_s": get("mechanism.apply_trade", 1),
        "mechanism.apply_trade_calls": get("mechanism.apply_trade", 0),
        "speculator.waiting_interval_s": get("speculator.waiting_interval", 1),
        "speculator.waiting_interval_calls": get("speculator.waiting_interval", 0),
        "speculator.band_repeat_share": band_repeat_share(passes),
        "rounds.build_round_matrix_s": get("rounds.build_round_matrix", 1),
        "rounds.eigen_s": get("rounds.eigen", 1),
        "rounds.expected_depletion_rounds_s": get("rounds.expected_depletion_rounds", 1),
        "rounds.expected_depletion_rounds_calls": get("rounds.expected_depletion_rounds", 0),
        "rounds.horizon_limited": sum(f.get("horizon_limited", 0) for f in facts) / n,
        "prices.load_csv_s": get("prices.load_csv", 1),
        "prices.load_csv_rows": get("prices.load_csv", 3),
        "prices.step_stats_s": get("prices.step_stats", 1),
        "theory.tail_spread_s": get("theory.tail_spread", 1),
        "theory.greedy_threshold_profit_s": get("theory.greedy_threshold_profit", 1),
        "theory.run_omniscient_s": get("theory.run_omniscient", 1),
        "trace.overhead_s": statistics.fmean(p["wall_s"] for p in traced) - untraced_wall,
    }


# ---------------------------------------------------------------------------
# entry points


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    sampler = Sampler()
    try:
        *setup, manifest = set_up(name, seed, work)
        import_pegstress()
        from pegstress import cli

        workload = WORKLOADS[name]()
        passes: list[dict] = []
        if not trace:
            sampler.start()
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            # Traced runs alternate, swapping which side goes first each pair,
            # so drift in machine speed falls on both sides alike.
            pair = len(passes) // 2
            order = ((False, True) if pair % 2 == 0 else (True, False)) if trace else (False,)
            for traced in order:
                passes.append(run_pass(workload, work, seed, manifest, len(passes), cli, traced, sampler))
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)

    check_digests(name, passes, code_id())
    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if not r["ok"]]
    if trace:
        metrics, units, extra = per_layer(passes), PER_LAYER, {}
    else:
        (metrics, extra), units = end_to_end(passes, setup, sampler.slowdown()), END_TO_END

    for key, value in metrics.items():
        print(f"{key} = {value!r} {units[key]}")
    for key, (value, unit) in extra.items():
        print(f"{key} = {value!r} {unit}")
    for rec in failed[:5]:
        print(f"FAILED {rec['key']}: {rec['why']}", file=sys.stderr)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "metrics": metrics, "calibration_s": sampler.samples,
        "extra": {k: v for k, (v, _) in extra.items()},
        "passes": passes,
    }, default=str))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failed else 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so each gets its own peak RSS."""
    combined, attempted, failed, status = {}, 0, 0, 0
    for name in WORKLOADS:
        print(f"# {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            failed += 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0 and status == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": combined}))
    return 1 if failed or status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into is not None:
        return setup_child(args.workload, args.seed, args.setup_into)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
