"""Tests of the benchmark harness: span arithmetic and counter determinism.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import subquad_bsde  # noqa: E402
import workloads  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from subquad_bsde import solver  # noqa: E402
from tracer import (COUNTERS, Span, Tracer, instrument, layer_metrics,  # noqa: E402
                    outermost_total, self_times)
from workloads import WORKLOADS  # noqa: E402

REDUCED_PATHS = 2000


def _span(i, name, start, end, parent=None):
    return Span(id=i, name=name, start=start, end=end, parent=parent, run_id="synthetic")


def test_self_time_subtracts_covered_children_once():
    spans = [
        _span(0, "cli.run_experiment", 0.0, 10.0),
        _span(1, "solver.solve_ladder", 1.0, 6.0, parent=0),
        _span(2, "solver.solve_bounded", 1.5, 5.0, parent=1),
        _span(3, "generators.driver", 2.0, 3.0, parent=2),
        _span(4, "generators.driver", 2.5, 4.0, parent=2),     # overlaps its sibling
        _span(5, "bounds.sup", 5.5, 11.0, parent=0),           # runs past its parent's end
    ]
    # the overlap of spans 1 and 5 and of spans 3 and 4 is covered once
    assert self_times(spans) == pytest.approx({0: 1.0, 1: 1.5, 2: 1.5, 3: 1.0, 4: 1.5, 5: 5.5})


def test_outermost_total_counts_nested_same_name_spans_once():
    spans = [
        _span(0, "constants.derive", 0.0, 4.0),
        _span(1, "constants.theta", 1.0, 2.0, parent=0),
        _span(2, "constants.theta", 5.0, 6.5),
    ]
    assert outermost_total(spans, ["constants.derive", "constants.theta"]) == pytest.approx(5.5)
    assert outermost_total(spans, ["constants.theta"]) == pytest.approx(2.5)


def test_instrument_restores_every_public_function():
    before = (subquad_bsde.solve_bounded, solver.solve_bounded, subquad_bsde.make_generator)
    with instrument(Tracer("restore")):
        assert solver.solve_bounded is not before[1]
    assert (subquad_bsde.solve_bounded, solver.solve_bounded,
            subquad_bsde.make_generator) == before


def _one_run(name, tmp_path, traced):
    wl = WORKLOADS[name]
    tracer = Tracer(f"{name}-{tmp_path.name}")
    out = tmp_path / ("traced" if traced else "untraced")
    if traced:
        with instrument(tracer):
            inputs = wl.setup(5, REDUCED_PATHS, str(out))
            outputs = wl.run(inputs)
    else:
        inputs = wl.setup(5, REDUCED_PATHS, str(out))
        outputs = wl.run(inputs)
    return wl.digest(inputs, outputs), layer_metrics(tracer.spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_and_tracing_keeps_outputs(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LADDER_JOBS", 2)
    plain_digest, _ = _one_run(name, tmp_path / "a", traced=False)
    digest_1, layers_1 = _one_run(name, tmp_path / "b", traced=True)
    digest_2, layers_2 = _one_run(name, tmp_path / "c", traced=True)
    assert digest_1 == digest_2 == plain_digest
    assert {k: layers_1[k] for k in COUNTERS} == {k: layers_2[k] for k in COUNTERS}
    assert layers_1["generators.driver_calls"] > 0 and layers_1["solver.solves"] > 0


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = layer_metrics([]) | {"trace.overhead_s": 0.0}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: COUNTERS.get(k, "s") for k in layers}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
