"""Fast self-tests of the benchmark's own arithmetic; they run no workload.

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import report  # noqa: E402
from tracing import Span, Tracer, layer_totals, self_times  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert report.tail_percentile(values, 0.9) == 90.0
    assert report.tail_percentile(values[:99], 0.9) is None
    assert report.tail_percentile(values[:20], 0.5) == 90.0
    assert report.tail_percentile(values[:19], 0.5) is None
    assert report.tail_percentile([], 0.5) is None


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 2.0, 3.0, 1),
        Span(3, "a", 5.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == spans[0].end - spans[0].start
    totals = layer_totals(spans)
    assert totals["a"] == {"self_s": 6.0, "calls": 2}


def test_tracer_records_parents_and_closes_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            assert tracer.enclosing("outer") == 0
        with tracer.span("inner"):
            pass
    assert [(sp.name, sp.parent) for sp in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0)
    ]
    assert all(sp.end >= sp.start for sp in tracer.spans)
    assert tracer.enclosing("outer") is None
    assert sum(self_times(tracer.spans).values()) == pytest.approx(
        tracer.spans[0].end - tracer.spans[0].start
    )


def test_pool_efficiency():
    assert report.pool_efficiency(15.8, 2, 8.1) == pytest.approx(15.8 / 16.2)
    assert report.pool_efficiency(6.0, 1, 6.0) == 1.0


def _result(trace: int) -> dict:
    spec = report.PER_LAYER if trace else report.END_TO_END
    return {
        "schema": 1,
        "workload": "band-k5",
        "seed": 3,
        "seconds": 10.0,
        "trace": trace,
        "machine": report.machine(),
        "operations": {"runs": {"attempted": 400, "failed": 0},
                       "checks": {"attempted": 105, "failed": 1}},
        "check_failures": [{"check": "x", "problems": ["y"]}],
        "metrics": report.metric_block({name: 1.5 for name, _ in spec}, spec),
        "detail": {},
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(trace):
    doc = _result(trace)
    report.validate_result(doc)
    json.loads(json.dumps(doc))
    line = report.last_line(False, doc["operations"], doc["metrics"])
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert (line["attempted"], line["failed"]) == (505, 1)

    for breakage in (
        lambda d: d.pop("machine"),
        lambda d: d["operations"]["runs"].update(failed=401),
        lambda d: d["metrics"].popitem(),
        lambda d: d["metrics"][next(iter(d["metrics"]))].update(unit="ms"),
    ):
        bad = _result(trace)
        breakage(bad)
        with pytest.raises(ValueError):
            report.validate_result(bad)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(report.PER_LAYER)
    assert spec["command"][1] == "benchmarks/run.py"
