"""Outside-in tracer: spans recorded around calls into the toolkit's public functions.

Nothing under ``src/`` knows about tracing.  `instrument` swaps each traced
public function for a wrapper in every ``subquad_bsde`` module namespace that
holds it, and restores the originals on exit.  Generators that
``make_generator`` returns get a timed ``fn`` through ``dataclasses.replace``,
so every driver evaluation, including those made through the truncated and
theta-difference transforms, is one ``generators.driver`` span.  Wrappers only
wrap: arguments, return values and exceptions pass through unchanged.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

DRIVER = "generators.driver"


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one run; the innermost open span is the parent of a new one."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(id=len(self.spans), name=name, start=time.perf_counter(), end=float("nan"),
                  parent=self._open[-1] if self._open else None, run_id=self.run_id)
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            self._open.pop()
            sp.end = time.perf_counter()

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` inside a span; ``attrs(arguments, result)`` may annotate the span."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    sp.attrs.update(attrs(signature.bind(*args, **kwargs).arguments, result))
                return result

        return wrapper

    def timed_generator(self, gen):
        """Copy of ``gen`` whose every evaluation is a driver span with its row count."""
        inner = gen.fn

        def timed_fn(t, b, y, z):
            with self.span(DRIVER) as sp:
                sp.attrs["rows"] = len(np.atleast_1d(y))
                sp.attrs["t"] = float(t) if isinstance(t, float) else None
                return inner(t, b, y, z)

        return dataclasses.replace(gen, fn=timed_fn)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([dataclasses.asdict(s) for s in self.spans]))


def _solve_attrs(arguments, result):
    return {"rows": int(arguments["bundle"].count), "steps": int(arguments["grid"].steps)}


def _report_attrs(arguments, result):
    return {"points": int(result.samples_used)}


# span name -> (module, public function, optional span annotator)
TRACED = {
    "paths.sample_paths": ("paths", "sample_paths", None),
    "constants.derive": ("constants", "derive_constants", None),
    "constants.theta": ("constants", "theta_constants", None),
    "solver.solve_ladder": ("solver", "solve_ladder", None),
    "solver.solve_bounded": ("solver", "solve_bounded", _solve_attrs),
    "solver.picard_solve": ("solver", "picard_solve", _solve_attrs),
    "solver.consistency_residual": ("solver", "consistency_residual", None),
    "solver.theta_residual": ("solver", "theta_residual", None),
    "conditions.build_cloud": ("conditions", "build_cloud", None),
    "conditions.check_growth": ("conditions", "check_growth", _report_attrs),
    "conditions.check_y_regularity": ("conditions", "check_y_regularity", _report_attrs),
    "conditions.check_z_regularity": ("conditions", "check_z_regularity", _report_attrs),
    "conditions.check_theta_convexity": ("conditions", "check_theta_convexity", _report_attrs),
    "bounds.pointwise": ("bounds", "verify_pointwise_bound", None),
    "bounds.sup": ("bounds", "verify_sup_bound", None),
    "bounds.comparison": ("bounds", "verify_comparison", None),
    "bounds.fhat_process": ("bounds", "fhat_process", None),
    "bounds.fhat_moment": ("bounds", "verify_fhat_moment", None),
    "envelopes.lemma_samples": ("envelopes", "lemma_samples", None),
    "envelopes.construct_A2": ("envelopes", "construct_A2_envelope", None),
    "envelopes.construct_A3": ("envelopes", "construct_A3_envelope", None),
    "envelopes.lemmaA1": ("envelopes", "lemmaA1_check", None),
    "envelopes.lemmaA2": ("envelopes", "lemmaA2_check", None),
    "envelopes.lemmaA3": ("envelopes", "lemmaA3_check", None),
    "envelopes.remainder": ("envelopes", "remainder_check", None),
    "cli.run_experiment": ("cli", "run_experiment", None),
}


def _rebind(original, replacement) -> list:
    """Point every toolkit namespace entry that is ``original`` at ``replacement``."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "subquad_bsde" or mod_name.startswith("subquad_bsde.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every function in `TRACED` and time every generator ``make_generator`` builds."""
    undo = []
    try:
        for name, (module, func, attrs) in TRACED.items():
            original = getattr(importlib.import_module(f"subquad_bsde.{module}"), func)
            undo += _rebind(original, tracer.wrap(name, original, attrs))
        make_generator = importlib.import_module("subquad_bsde.generators").make_generator

        @functools.wraps(make_generator)
        def timed_make_generator(*args, **kwargs):
            return tracer.timed_generator(make_generator(*args, **kwargs))

        undo += _rebind(make_generator, timed_make_generator)
        yield tracer
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its direct children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def outermost_total(spans: list[Span], names) -> float:
    """Summed duration of spans named in ``names`` that no such span encloses."""
    names = set(names)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            total += s.duration
    return total


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer times and counters of one traced run (``trace.overhead_s`` is added by the caller)."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    drivers = [s for s in spans if s.name == DRIVER]
    solves = [s for s in spans if s.name == "solver.solve_bounded"]
    picards = [s for s in spans if s.name == "solver.picard_solve"]

    def direct(parent_spans):
        ids = {s.id for s in parent_spans}
        return [d for d in drivers if d.parent in ids]

    full = [d for d in direct(solves) if d.attrs["rows"] == by_id[d.parent].attrs["rows"]]
    partial = [d for d in direct(solves) if d.attrs["rows"] < by_id[d.parent].attrs["rows"]]
    solve_steps = sum(s.attrs["steps"] for s in solves)
    picard_steps = sum(s.attrs["steps"] for s in picards)

    def total(*names):
        return outermost_total(spans, names)

    def layer_self(layer):
        return sum(selfs[s.id] for s in spans if s.layer == layer)

    return {
        "generators.driver_s": sum(d.duration for d in drivers),
        "generators.driver_calls": len(drivers),
        "generators.driver_rows": sum(d.attrs["rows"] for d in drivers),
        "solver.fp_calls_per_step": len(full) / solve_steps if solve_steps else 0.0,
        "solver.fallback_calls": len(partial),
        "solver.fallback_steps": len({(d.parent, d.attrs["t"]) for d in partial}),
        "solver.solve_ladder_s": total("solver.solve_ladder"),
        "solver.solve_bounded_s": total("solver.solve_bounded"),
        "solver.solves": len(solves),
        "solver.picard_solve_s": total("solver.picard_solve"),
        "solver.picard_iterations": len(direct(picards)) / picard_steps if picard_steps else 0.0,
        "solver.self_s": layer_self("solver"),
        "solver.residual_s": total("solver.consistency_residual", "solver.theta_residual"),
        "bounds.pointwise_s": total("bounds.pointwise"),
        "bounds.sup_s": total("bounds.sup"),
        "bounds.comparison_s": total("bounds.comparison"),
        "bounds.fhat_s": total("bounds.fhat_process", "bounds.fhat_moment"),
        "paths.sample_paths_s": total("paths.sample_paths"),
        "constants.derive_s": total("constants.derive", "constants.theta"),
        "conditions.check_s": total(*(n for n in TRACED if n.startswith("conditions.check_"))),
        "conditions.points_checked": sum(s.attrs.get("points", 0) for s in spans
                                         if s.name.startswith("conditions.check_")),
        "envelopes.sweep_s": total(*(n for n in TRACED if n.startswith("envelopes."))),
        "cli.self_s": layer_self("cli"),
    }


# counters that must repeat exactly across runs of one workload and seed, with units
COUNTERS = {"generators.driver_calls": "count", "generators.driver_rows": "count",
            "solver.fp_calls_per_step": "calls/step", "solver.fallback_calls": "count",
            "solver.fallback_steps": "count", "solver.solves": "count",
            "solver.picard_iterations": "iterations", "conditions.points_checked": "count"}
