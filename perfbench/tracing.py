"""Spans around the calls one pegstress layer makes into another.

The benchmark never edits the package.  For a traced pass it replaces the
module-level names that one layer imported from another (``cli.monte_carlo``,
``engine.apply_trade``, ...) with wrappers that record a span per call, and
puts the originals back afterwards.

A span is ``[name, start, end, parent, folded, count]``.  ``parent`` is the
index of the enclosing span (-1 at top level).  ``count`` is the work the call
reports in its result (trials run, rows loaded), or 0.  Calls made once per
simulated trade or trial (``apply_trade``, ``derive_seed``) would produce
millions of spans, so they are folded into the enclosing span as
``folded[name] = [calls, seconds]``: the same busy time and call count, without
one record each.
"""

from __future__ import annotations

import importlib
import time
from operator import attrgetter

_trials = attrgetter("trials")

# (module, attribute, span name, folded, count).  The span name is the layer
# that owns the function, so one function reached through two imports gets
# one name.  count maps the call's result to the work it did.
WRAPPED = (
    ("pegstress.cli", "monte_carlo", "engine.monte_carlo", False, _trials),
    ("pegstress.cli", "sweep", "engine.sweep", False, None),
    ("pegstress.cli", "waiting_interval", "speculator.waiting_interval", False, None),
    ("pegstress.cli", "build_round_matrix", "rounds.build_round_matrix", False, None),
    ("pegstress.cli", "eigen", "rounds.eigen", False, None),
    ("pegstress.cli", "divergence_check", "rounds.divergence_check", False, None),
    ("pegstress.cli", "expected_depletion_rounds", "rounds.expected_depletion_rounds", False, None),
    ("pegstress.cli", "load_csv", "prices.load_csv", False, len),
    ("pegstress.cli", "step_stats", "prices.step_stats", False, None),
    ("pegstress.cli", "tail_spread", "theory.tail_spread", False, None),
    ("pegstress.engine", "monte_carlo", "engine.monte_carlo", False, _trials),
    ("pegstress.engine", "waiting_interval", "speculator.waiting_interval", False, None),
    ("pegstress.engine", "apply_trade", "mechanism.apply_trade", True, None),
    ("pegstress.engine", "derive_seed", "prices.derive_seed", True, None),
    ("pegstress.theory", "apply_trade", "mechanism.apply_trade", True, None),
)


class Tracer:
    """Collects spans while installed; ``install``/``restore`` bracket a pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, count=None, **kwargs):
        """Call fn(*args, **kwargs) inside a span named name; return its result."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, {}, 0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            rec[5] = count(result)
        return result

    def _wrap(self, name: str, fn, folded: bool, count):
        if not folded:
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, count=count, **kwargs)
            return traced

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                acc = self.spans[self._stack[-1]][4].setdefault(name, [0, 0.0])
                acc[0] += 1
                acc[1] += dt
        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, folded, count in WRAPPED:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, folded, count))

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def summarize(spans: list[list]) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds, count].

    Self time is the span's duration minus its direct child spans and the
    calls folded into it.  Folded names get calls and total time; their self
    time equals their total, since nothing below them is traced.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for idx, (name, start, end, _, folded, count) in enumerate(spans):
        dur = end - start
        row = out.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_time[idx] - sum(acc[1] for acc in folded.values())
        row[3] += count
        for fname, (calls, secs) in folded.items():
            frow = out.setdefault(fname, [0, 0.0, 0.0, 0])
            frow[0] += calls
            frow[1] += secs
            frow[2] += secs
    return out
