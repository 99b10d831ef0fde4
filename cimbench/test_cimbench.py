"""Tests of the benchmark's own helpers (run with pytest from the repo root)."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

from benchstats import spread, tail  # noqa: E402
from benchtrace import (  # noqa: E402
    PER_LAYER,
    Tracer,
    assign_ops,
    covered,
    installed,
    layer_metrics,
    self_times,
    unattributed_frac,
)
from gateway_load import poll  # noqa: E402


# ------------------------------------------------------------ tail rule
def test_tail_keeps_ten_samples_beyond_it():
    value, percentile, beyond = tail(list(range(31, 0, -1)))
    assert (value, beyond) == (21, 10)
    assert percentile == pytest.approx(100 * 21 / 31)


def test_tail_of_twenty_samples_is_the_lower_median():
    value, percentile, beyond = tail(range(20))
    assert (value, percentile, beyond) == (9, 50.0, 10)


def test_tail_of_a_short_run_degrades_towards_the_median():
    assert tail([5.0, 1.0, 3.0, 4.0, 2.0, 6.0, 7.0]) == (4.0, 100 * 4 / 7, 3)
    assert tail([2.5]) == (2.5, 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


def test_spread_is_the_interquartile_range_over_the_median():
    assert spread([1.0] * 10) == 0.0
    assert spread([9, 10, 10, 10, 11]) == pytest.approx((10.5 - 9.5) / 10)


# ---------------------------------------------------- self-time subtraction
def span(span_id, name, start, end, parent=0, op=0, info=None):
    return (span_id, name, start, end, parent, op, info)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [span(1, "outer", 0.0, 10.0),
             span(2, "child", 1.0, 3.0, parent=1),
             span(3, "child", 2.0, 5.0, parent=1),   # overlaps its sibling
             span(4, "leaf", 1.5, 2.5, parent=2),
             span(5, "child", 8.0, 12.0, parent=1)]  # runs past its parent
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(4.0)


def test_covered_clips_and_merges():
    assert covered([(0, 2), (1, 3), (5, 9)], 1, 6) == pytest.approx(3.0)
    assert covered([], 0, 1) == 0.0


def test_tracer_records_nesting_on_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.op = 7
    assert outer(1) == 4
    (inner_span, outer_span) = tracer.spans
    assert inner_span[1:6] == ("inner", 1, 2, outer_span[0], 7)
    assert outer_span[1:6] == ("outer", 0, 3, 0, 7)
    assert self_times(tracer.spans)[outer_span[0]] == 2


def test_spans_from_another_process_are_assigned_by_op_window():
    windows = [(0.0, 1.0), (2.0, 3.0)]
    spans = [span(1, "a", 0.5, 0.6, op=None), span(2, "a", 1.5, 1.6, op=None),
             span(3, "a", 2.1, 2.9, op=None), span(4, "b", 0.1, 0.2, op=1)]
    placed = assign_ops(spans, windows)
    assert [(s[0], s[5]) for s in placed] == [(1, 0), (3, 1), (4, 1)]
    assert unattributed_frac(placed, windows) == pytest.approx(
        1 - (0.1 + 0.8) / 2.0)


# ------------------------------------------------------ fixed-interval poll
class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(round(seconds, 9))
        self.now += seconds


def test_poller_polls_on_a_fixed_grid():
    clock = FakeClock()
    answers = iter([None, None, "done"])
    calls = []

    def fetch():
        calls.append(clock.now)
        return next(answers)

    assert poll(fetch, 0.5, clock=clock, sleep=clock.sleep) == ("done", 3)
    assert calls == [0.5, 1.0, 1.5]


def test_poller_skips_slots_a_slow_poll_missed():
    clock = FakeClock()
    answers = iter([None, None, "done"])
    calls = []

    def fetch():
        calls.append(clock.now)
        clock.now += 0.7  # each poll takes longer than the interval
        return next(answers)

    assert poll(fetch, 0.5, clock=clock, sleep=clock.sleep) == ("done", 3)
    assert calls == pytest.approx([0.5, 1.5, 2.5])


def test_poller_times_out():
    clock = FakeClock()
    with pytest.raises(TimeoutError):
        poll(lambda: None, 1.0, timeout=3.0, clock=clock, sleep=clock.sleep)


# ------------------------------------------- tracing leaves outputs intact
def _outputs(api):
    sweep = api.sweep(api.SweepRequest(designs=("baseline", "design-a"),
                                       models=("llama2-7b",),
                                       precisions=("int8",), batches=(1,)))
    serve = api.simulate(api.SimulateRequest(llm="llama2-7b", rate=0.1,
                                             requests=200, seed=3))
    return [json.dumps(r.to_dict(), indent=2) for r in (sweep, serve)]


def test_installing_the_tracer_leaves_every_output_unchanged(tmp_path):
    import repro.api as api
    from repro.mapping.engine import MappingEngine
    from repro.sweep.store import ResultStore

    original = vars(MappingEngine)["map_matmul"]
    plain = _outputs(api)
    tracer = Tracer()
    with installed(tracer):
        assert MappingEngine.map_matmul is not original
        traced = _outputs(api)
        store = ResultStore(tmp_path / "store.jsonl")
        request = api.SimulateRequest(llm="llama2-7b", rate=0.1, requests=50)
        cold, warm = (api.simulate(request, store=store) for _ in range(2))
    assert vars(MappingEngine)["map_matmul"] is original
    assert traced == plain
    assert warm.report == cold.report
    names = {s[1] for s in tracer.spans}
    assert {"mapping.map_matmul", "cim.gemm", "systolic.gemm",
            "memory.transfer", "vector.execute", "core.run_graph",
            "serving.loop", "serving.price", "api.to_dict", "api.decode",
            "store.get", "store.put"} <= names
    metrics = layer_metrics(tracer.spans, ops=1)
    assert metrics["store.hit_frac"] == 0.5
    assert metrics["store.put_bytes"] > 0
    assert 0 < metrics["mapping.distinct_frac"] <= 1


def test_benchmark_json_lists_every_metric_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(PER_LAYER.values())
    assert set(layer_metrics([], ops=1)) <= set(PER_LAYER)
