"""The three benchmark workloads: their inputs, request lists and gates.

Each workload class has ``setup(work, seed)``, which writes the inputs that do not
change between passes and returns a JSON-able manifest, and
``requests(work, seed, manifest, pass_index)``, which returns one pass of
requests.  A request is either a CLI command line, sent in-process through
``pegstress.cli.main``, or a direct call into ``pegstress.theory`` (the
oracles have no CLI).  Every input is derived from the workload seed;
nothing else reaches the program.

A gate checks invariants of a reply, never golden values, so intended
fixes to the closed form or the kernel do not trip it.  A failed gate raises
``GateError``; the request then counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE = {
    "source": {"kind": "normal", "mu": 100.0, "sigma2": 100.0},
    "speculator": {"delta": 0.1},
    "reserves0": 100.0,
    "n0": 1.0,
}
RESERVES0 = 100.0


class GateError(Exception):
    """A reply broke one of its workload's invariants."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


@dataclass
class Request:
    """One request of a pass.

    ``argv`` is a CLI command line; ``call(span)`` is a direct call into the
    package, where ``span(name, fn, *args)`` runs ``fn`` inside a named span.
    ``check(reply)`` applies the gates and returns facts about the work done
    (``steps``, ``horizon_limited``, ``band``).  ``out`` is the request's
    ``--out`` file, whose sha256 must repeat between runs of the same code.
    """

    key: str
    check: object
    argv: list[str] | None = None
    call: object = None
    out: Path | None = None


@dataclass
class Reply:
    rc: int = 0
    stdout: str = ""
    stderr: str = ""
    value: object = None


def _rng(name: str, seed: int, *salt) -> random.Random:
    # String seeds hash through sha512, so the stream does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random(":".join(str(x) for x in (name, seed, *salt)))


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def console(reply: Reply) -> dict[str, str]:
    """Last value of each ``key = value`` line the CLI printed."""
    out = {}
    for line in reply.stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _ok_exit(reply: Reply) -> None:
    gate(reply.rc == 0, f"exit code {reply.rc}: {reply.stderr.strip()[-300:]}")


def _out_rows(out: Path):
    """Rows of the --out CSV, streamed so the check adds little to peak RSS."""
    with open(out, newline="") as fh:
        yield from csv.DictReader(fh)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# ---------------------------------------------------------------------------
# mc_reference: 10,000-trial simulate --out on the reference config


class McReference:
    """Time goes to the engine's per-step kernel and to keeping and writing
    10,000 per-trial records, so a batched kernel must show its gain here."""

    name = "mc_reference"
    TRIALS = 10_000
    PER_PASS = 2

    def setup(self, work: Path, seed: int) -> dict:
        return {"config": _write_json(work / "reference.json", REFERENCE)}

    def requests(self, work: Path, seed: int, manifest: dict, pass_index: int) -> list[Request]:
        rng = _rng(self.name, seed, pass_index)
        reqs = []
        for k in range(self.PER_PASS):
            s = rng.randrange(2**31)
            out = work / f"mc_{k}.csv"
            argv = ["simulate", "--config", manifest["config"], "--trials", str(self.TRIALS),
                    "--seed", str(s), "--out", str(out)]
            reqs.append(Request(f"simulate seed={s}", self.check(out), argv=argv, out=out))
        return reqs

    def check(self, out: Path):
        def check(reply: Reply) -> dict:
            _ok_exit(reply)
            rep = console(reply)
            gate(float(rep["fraction_depleted"]) == 1.0, f"fraction_depleted {rep['fraction_depleted']}")
            mean = float(rep["mean_depletion_steps"])
            gate(219.0 <= mean <= 229.0, f"mean_depletion_steps {mean} outside [219, 229]")
            trials, steps = [], 0
            for r in _out_rows(out):
                trials.append(int(r["trial"]))
                steps += int(r["steps"])
            gate(sorted(trials) == list(range(self.TRIALS)),
                 f"--out has {len(trials)} rows, want one per trial ({self.TRIALS})")
            return {"steps": steps}
        return check


# ---------------------------------------------------------------------------
# analytic_grid: closed-form analyze over sigma2 x delta x lambda


class AnalyticGrid:
    """speculator and rounds do all the work and the engine none.  lambda
    repeats each band, so the share of work requests have in common is known,
    and one raw matrix per pass hits the depletion scan horizon."""

    name = "analytic_grid"
    # Inside [60, 400] x [0.03, 0.2] a band exists and depletion comes within
    # ~25 rounds; e.g. sigma2=25, delta=0.3 has no band and is refused.
    SIGMA2 = (60.0, 400.0)
    DELTA = (0.03, 0.2)
    LAMBDAS = (0.0, 0.25, 0.5)
    N_SIGMA2, N_DELTA = 4, 3
    # a1 - 1 in this range puts the crossing at 5e7..1.5e8 rounds, far past
    # the 10**6-round scan: about 0.4 s of scanning per request.
    EPS = (3e-8, 1e-7)

    def setup(self, work: Path, seed: int) -> dict:
        return {"reference": _write_json(work / "reference.json", REFERENCE)}

    def requests(self, work: Path, seed: int, manifest: dict, pass_index: int) -> list[Request]:
        rng = _rng(self.name, seed, pass_index)
        reqs = [Request("analyze reference", self.check_reference,
                        argv=["analyze", "--config", manifest["reference"]])]
        sigma2s = [rng.uniform(*self.SIGMA2) for _ in range(self.N_SIGMA2)]
        deltas = [rng.uniform(*self.DELTA) for _ in range(self.N_DELTA)]
        for s2 in sigma2s:
            for d in deltas:
                for lam in self.LAMBDAS:
                    cfg = dict(REFERENCE, source={"kind": "normal", "mu": 100.0, "sigma2": s2},
                               speculator={"delta": d, "lambda_buy": lam, "lambda_sell": lam})
                    path = _write_json(work / f"grid_{len(reqs)}.json", cfg)
                    reqs.append(Request(f"analyze sigma2={s2!r} delta={d!r} lambda={lam!r}",
                                        self.check_grid, argv=["analyze", "--config", path]))
        eps = math.exp(rng.uniform(*(math.log(e) for e in self.EPS)))
        cfg = {"matrix": self._matrix(eps, rng), "reserves0": RESERVES0, "n0": 1.0}
        path = _write_json(work / "horizon.json", cfg)
        reqs.append(Request(f"analyze matrix a1-1={eps!r}", self.check_horizon(eps),
                            argv=["analyze", "--config", path]))
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _matrix(eps: float, rng: random.Random) -> dict:
        """Raw round-matrix parameters whose dominant eigenvalue is 1 + eps.

        det M = L1 L2 and trace M = L1 + L2 + (1 - L1)(1 - L2) Y, so a1 = 1 + eps
        pins the trace, hence Y.
        """
        lam, i, j = rng.uniform(0.1, 0.4), rng.uniform(5.0, 15.0), rng.uniform(2.0, 6.0)
        l1, l2 = lam**i, lam**j
        a1 = 1.0 + eps
        trace = (a1 * a1 + l1 * l2) / a1
        y_ratio = (trace - l1 - l2) / ((1.0 - l1) * (1.0 - l2))
        return {"lambda_buy": lam, "lambda_sell": lam, "i": i, "j": j, "y_ratio": y_ratio}

    @staticmethod
    def _closed_form(rep: dict) -> dict:
        """Gates every analyze reply shares: the timestep identity."""
        horizon = 0
        if rep["outcome"] == "depletes":
            i, j = float(rep["i"]), float(rep["j"])
            k, steps = float(rep["depletion_rounds"]), float(rep["depletion_timesteps"])
            gate(_close(steps, i + k * (i + j), 1e-12),
                 f"depletion_timesteps {steps} != i + k(i + j) = {i + k * (i + j)}")
        elif rep["outcome"] == "no depletion within horizon":
            horizon = int(rep["diverges"] == "true")
        return {"horizon_limited": horizon}

    def check_grid(self, reply: Reply) -> dict:
        _ok_exit(reply)
        rep = console(reply)
        gate(float(rep["y1"]) <= float(rep["y2"]), f"y1 {rep['y1']} > y2 {rep['y2']}")
        facts = self._closed_form(rep)
        facts["band"] = (rep["mu"], rep["sigma2"], rep["delta"])
        return facts

    def check_reference(self, reply: Reply) -> dict:
        facts = self.check_grid(reply)
        rep = console(reply)
        for key, want, rel in (("i", 10.057, 5e-3), ("j", 3.6954, 5e-3),
                               ("depletion_rounds", 15.78, 2e-2),
                               ("depletion_timesteps", 227.0, 2e-2)):
            gate(_close(float(rep[key]), want, rel), f"reference {key} {rep[key]} not within {rel} of {want}")
        return facts

    def check_horizon(self, eps: float):
        def check(reply: Reply) -> dict:
            _ok_exit(reply)
            rep = console(reply)
            gate(abs(float(rep["a1"]) - (1.0 + eps)) <= 1e-12, f"a1 {rep['a1']} != 1 + {eps}")
            facts = self._closed_form(rep)
            facts["band"] = None
            return facts
        return check


# ---------------------------------------------------------------------------
# history: study of seeded historical series loaded from CSV


class History:
    """The only workload that runs prices.load_csv, theory and the engine's
    adaptive path.  Its simulate runs one trial per n0, so trial batching has
    nothing to batch there; its sweep runs the adaptive path over many trials."""

    name = "history"
    SERIES = 3
    LENGTH = 50_000
    N0_GRID = [0.5, 1.0, 2.0, 4.0]
    SWEEP_SCALES = [0.5, 1.0, 2.0, 4.0]
    SWEEP_TRIALS = 16
    SWEEP_STEPS = 10_000
    FEES = {"eps_alpha": 0.01, "eps_beta": 0.01}

    def __init__(self) -> None:
        self._loaded = None  # the series as PriceSeries, for the oracle calls

    def setup(self, work: Path, seed: int) -> dict:
        from pegstress.prices import WalkSpec, random_walk

        rng = _rng(self.name, seed)
        series = []
        for k in range(self.SERIES):
            series_seed = rng.randrange(2**31)
            sigma = rng.uniform(0.5, 2.0)
            # The walk's spread after 5e4 steps is ~224 sigma; starting 2000
            # sigma above zero keeps the floor from ever clamping.
            walk = random_walk(WalkSpec(mu_step=0.0, sigma_step=sigma, p0=2000.0 * sigma),
                               self.LENGTH, series_seed)
            if walk.clamp_count:
                raise RuntimeError(f"series {series_seed} clamped at the floor")
            path = work / f"series_{k}.csv"
            with open(path, "w") as fh:
                fh.write("timestamp,price\n")
                fh.writelines(f"{t},{p!r}\n" for t, p in enumerate(walk.prices))
            diffs = [b - a for a, b in zip(walk.prices, walk.prices[1:])]
            mu = math.fsum(diffs) / len(diffs)
            sd = math.sqrt(math.fsum((d - mu) ** 2 for d in diffs) / len(diffs))
            src = {"kind": "csv", "path": str(path)}
            fitted = {"kind": "walk", "mu_step": mu, "sigma_step": sd, "p0": walk.prices[0]}
            series.append({
                "seed": series_seed,
                "csv": str(path),
                "first_price": walk.prices[0],
                "mu_step": mu,
                "sigma_step": sd,
                "stats": _write_json(work / f"stats_{k}.json", {"source": src}),
                "theory": _write_json(work / f"theory_{k}.json", {"source": src, "fees": self.FEES}),
                "simulate": _write_json(work / f"simulate_{k}.json", {
                    "source": src, "speculator": {"delta": 0.1}, "mode": "adaptive",
                    "adaptive": {"c": 2.0, "window": 168}, "reserves0": RESERVES0,
                    "n0_grid": self.N0_GRID}),
                "sweep": _write_json(work / f"sweep_{k}.json", {
                    "source": fitted, "speculator": {"delta": 0.1},
                    "adaptive": {"c": 1.0, "window": 168}, "reserves0": RESERVES0, "n0": 1.0,
                    "run": {"max_steps": self.SWEEP_STEPS},
                    "sweep": {"axis": "sigma_step", "values": [x * sd for x in self.SWEEP_SCALES],
                              "trials": self.SWEEP_TRIALS}}),
            })
        return {"series": series}

    def requests(self, work: Path, seed: int, manifest: dict, pass_index: int) -> list[Request]:
        from pegstress.prices import load_csv

        if self._loaded is None:
            self._loaded = [load_csv(s["csv"]) for s in manifest["series"]]
        reqs = []
        for k, s in enumerate(manifest["series"]):
            tag = f"series={s['seed']}"
            sim_out, sweep_out = work / f"simulate_{k}.out.csv", work / f"sweep_{k}.out.csv"
            reqs += [
                Request(f"{tag} ingest-stats", self.check_stats(s),
                        argv=["ingest-stats", "--config", s["stats"]]),
                Request(f"{tag} theory", self.check_theory,
                        argv=["theory", "--config", s["theory"]]),
                Request(f"{tag} simulate", self.check_simulate(sim_out), out=sim_out,
                        argv=["simulate", "--config", s["simulate"], "--seed", str(s["seed"]),
                              "--out", str(sim_out)]),
                Request(f"{tag} sweep", self.check_sweep(sweep_out), out=sweep_out,
                        argv=["sweep", "--config", s["sweep"], "--seed", str(s["seed"]),
                              "--out", str(sweep_out)]),
                Request(f"{tag} oracles", self.check_oracles, call=self._oracles(self._loaded[k])),
            ]
        return reqs

    def check_stats(self, s: dict):
        def check(reply: Reply) -> dict:
            _ok_exit(reply)
            rep = console(reply)
            gate(float(rep["p0"]) == s["first_price"], f"p0 {rep['p0']} != first price {s['first_price']!r}")
            gate(int(rep["rows"]) == self.LENGTH, f"rows {rep['rows']} != {self.LENGTH}")
            tol = 1e-9 * s["sigma_step"]
            gate(abs(float(rep["sigma_step"]) - s["sigma_step"]) <= tol, f"sigma_step {rep['sigma_step']}")
            gate(abs(float(rep["mu_step"]) - s["mu_step"]) <= tol, f"mu_step {rep['mu_step']}")
            return {}
        return check

    def check_theory(self, reply: Reply) -> dict:
        _ok_exit(reply)
        rep = console(reply)
        fee = float(rep["min_fee"])
        gate(0.0 <= fee < 1.0, f"min_fee {fee} outside [0, 1)")
        gate(rep["classification"] in ("stable", "at-risk", "boundary"), rep["classification"])
        return {}

    def check_simulate(self, out: Path):
        def check(reply: Reply) -> dict:
            _ok_exit(reply)
            rows = list(_out_rows(out))
            gate(len(rows) == len(self.N0_GRID), f"--out has {len(rows)} rows, want one per n0")
            for r in rows:
                gate(0.0 <= float(r["r_min"]) <= RESERVES0, f"r_min {r['r_min']} outside [0, {RESERVES0}]")
            return {"steps": sum(int(r["steps"]) for r in rows)}
        return check

    def check_sweep(self, out: Path):
        def check(reply: Reply) -> dict:
            _ok_exit(reply)
            rows = list(_out_rows(out))
            gate(len(rows) == len(self.SWEEP_SCALES), f"--out has {len(rows)} rows, want one per value")
            steps = 0
            for r in rows:
                gate(0.0 <= float(r["r_min_min"]) <= float(r["r_min_max"]) <= RESERVES0,
                     f"r_min range [{r['r_min_min']}, {r['r_min_max']}] outside [0, {RESERVES0}]")
                trials, depleted = int(r["trials"]), int(r["depleted_count"])
                # A walk never runs dry, so a trial that does not deplete runs to max_steps.
                done = round(float(r["mean_depletion_steps"]) * depleted) if depleted else 0
                steps += done + (trials - depleted) * self.SWEEP_STEPS
            return {"steps": steps}
        return check

    def _oracles(self, series):
        def call(span):
            from pegstress import theory

            fees = (self.FEES["eps_alpha"], self.FEES["eps_beta"])
            trace = span("theory.greedy_threshold_profit", theory.greedy_threshold_profit, series, *fees)
            run = span("theory.run_omniscient", theory.run_omniscient, series, *fees, RESERVES0)
            return trace, run
        return call

    def check_oracles(self, reply: Reply) -> dict:
        trace, run = reply.value
        gate(len(trace) == self.LENGTH, f"profit trace has {len(trace)} entries")
        gate(all(a <= b for a, b in zip(trace, trace[1:])), "oracle profit trace decreases")
        gate(0.0 <= run.r_min <= RESERVES0, f"omniscient r_min {run.r_min} outside [0, {RESERVES0}]")
        gate(run.depleted == (run.depletion_step is not None), "omniscient depletion flag and step disagree")
        return {}


WORKLOADS = {w.name: w for w in (McReference, AnalyticGrid, History)}
