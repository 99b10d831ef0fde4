"""Tests for the field-plan report codec (:mod:`repro.codec`).

The codec's contract is ``dataclasses.asdict``'s output, value for value,
without its deep copies.  Each converted class is therefore compared
against a reference encoder kept here that still goes through ``asdict``
— the exact ``to_dict`` bodies the codec replaced — on dict equality
(which tells tuples from lists) and on JSON bytes.  Decoding must rebuild
equal objects, encoded dicts must never alias the frozen objects, and no
``dataclasses.asdict`` call may creep back into ``src/repro``.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import pytest

from repro import api
from repro.api import ApiError, FleetRequest, OptimizeRequest, SweepRequest
from repro.codec import decode, encode, encode_rows, field_names
from repro.core.designs import tpuv4i_baseline
from repro.optimize.pareto import frontier_from_dict
from repro.serving.cluster import ClusterSimulator, cluster_report_from_dict
from repro.serving.faults import FaultSpec
from repro.serving.metrics import SLO, RequestMetrics
from repro.serving.simulator import ServingSimulator, serving_report_from_dict
from repro.serving.trace import generate_trace
from repro.sweep.cache import CachingInferenceSimulator
from repro.sweep.engine import SweepResult
from repro.sweep.export import to_csv, to_json
from repro.workloads.chat import RequestClass
from repro.workloads.llm import LLMConfig

if TYPE_CHECKING:  # pragma: no cover - deliberately unresolvable at runtime
    from repro.sweep.store import ResultStore

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

SMALL_LLM = LLMConfig(name="codec-test-llm", num_layers=4, num_heads=16,
                      d_model=2048, d_ff=8192, vocab_size=32000)
MIX = (RequestClass(input_tokens=64, output_tokens=32, weight=0.6),
       RequestClass(input_tokens=256, output_tokens=64, weight=0.4))
CONFIG = tpuv4i_baseline()
SHARED = CachingInferenceSimulator(CONFIG)
FAST = dict(llm="llama2-7b", input_tokens=64, output_tokens=16)


# ------------------------------------------------- asdict reference encoders
def ref_serving(report, include_requests=True):
    payload = dataclasses.asdict(report)
    payload["utilisation"] = report.utilisation
    payload["cost_cache_hit_rate"] = report.cost_cache_hit_rate
    if not include_requests:
        del payload["requests"]
    else:
        payload["requests"] = [dataclasses.asdict(r) for r in report.requests]
    return payload


def ref_cluster(report, include_requests=True):
    payload = dataclasses.asdict(report)
    payload["utilisation"] = report.utilisation
    payload["cost_cache_hits"] = report.cost_cache_hits
    payload["cost_cache_misses"] = report.cost_cache_misses
    payload["cost_cache_hit_rate"] = report.cost_cache_hit_rate
    payload["replica_timeline"] = [list(e) for e in report.replica_timeline]
    if not include_requests:
        del payload["requests"]
    else:
        payload["requests"] = [dataclasses.asdict(r) for r in report.requests]
    return payload


def ref_point(point):
    payload = dataclasses.asdict(point.result)
    payload["dominated_count"] = point.dominated_count
    return payload


def ref_frontier(frontier):
    payload = dataclasses.asdict(frontier)
    payload["points"] = [ref_point(point) for point in frontier.points]
    payload["extremes"] = [list(entry) for entry in frontier.extremes]
    return payload


def assert_same(encoded, reference):
    """Equal as dicts (tuple vs list included) and as JSON bytes."""
    assert encoded == reference
    assert json.dumps(encoded, indent=2) == json.dumps(reference, indent=2)


def json_round_trip(payload):
    return json.loads(json.dumps(payload))


# ----------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def serving_report():
    trace = generate_trace("poisson", MIX, 40.0, 60, 3)
    engine = ServingSimulator(SMALL_LLM, CONFIG, simulator=SHARED)
    report = engine.run(trace, slo=SLO(ttft_s=0.5, tpot_s=0.05))
    assert report.requests
    return report


@pytest.fixture(scope="module")
def faulted_cluster_report():
    engines = [ServingSimulator(SMALL_LLM, CONFIG, simulator=SHARED)
               for _ in range(3)]
    crash = FaultSpec("replica-crash", at_s=0.2, duration_s=1.0, replica=1)
    cluster = ClusterSimulator(engines, faults=(crash,))
    report = cluster.run(generate_trace("poisson", MIX, 150.0, 80, 7),
                         slo=SLO(ttft_s=0.5, tpot_s=0.05))
    assert report.fault_events and report.requests
    # Attainment that never recovers: the value JSON writes as Infinity.
    return dataclasses.replace(report, resilience=dataclasses.replace(
        report.resilience, recovery_s=float("inf")))


@pytest.fixture(scope="module")
def sweep_response():
    return api.sweep(SweepRequest(designs=("baseline", "design-a"),
                                  models=("llama2-7b",), batches=(1,),
                                  input_tokens=64, output_tokens=16))


@pytest.fixture(scope="module")
def optimize_response():
    return api.optimize(OptimizeRequest(
        designs=("baseline", "design-a"), replica_counts=(1, 2),
        requests=30, **FAST))


@pytest.fixture(scope="module")
def fleet_response():
    return api.fleet(FleetRequest(rate=30.0, requests=30, **FAST))


# Module level, so the codec resolves their string annotations.
@dataclass(frozen=True)
class Leaf:
    value: float


@dataclass(frozen=True)
class Odd:
    """Every field kind the report classes do not use."""

    rows: list[Leaf]
    table: dict[str, tuple[int, ...]]
    pairs: tuple[tuple[Leaf, list[int]], ...]
    maybe: Leaf | None = None
    anything: object = None
    nested: tuple[tuple[str, int], ...] = ()


# ------------------------------------------------------ asdict equivalence
class TestMatchesAsdict:
    def test_serving_report_with_rows(self, serving_report):
        for include in (True, False):
            assert_same(serving_report.to_dict(include_requests=include),
                        ref_serving(serving_report, include))
        row = serving_report.requests[0]
        assert_same(row.to_dict(), dataclasses.asdict(row))

    @pytest.mark.parametrize("include", [True, False],
                             ids=["with-rows", "without-rows"])
    def test_faulted_cluster_report(self, faulted_cluster_report, include):
        report = faulted_cluster_report
        encoded = report.to_dict(include_requests=include)
        assert_same(encoded, ref_cluster(report, include))
        assert encoded["resilience"]["recovery_s"] == float("inf")
        assert "Infinity" in json.dumps(encoded)
        for replica in report.replicas:
            assert_same(replica.to_dict(), dataclasses.asdict(replica))

    def test_sweep_rows(self, sweep_response):
        rows = sweep_response.row_objects()
        assert rows
        for row in rows:
            assert_same(row.to_dict(), dataclasses.asdict(row))
        assert to_json(rows) == json.dumps(
            [dataclasses.asdict(row) for row in rows], indent=2)
        assert to_csv(rows).splitlines()[0] == ",".join(
            f.name for f in dataclasses.fields(SweepResult))

    def test_pareto_frontier(self, optimize_response):
        frontier = optimize_response.frontier_object()
        assert frontier.points
        assert_same(frontier.to_dict(), ref_frontier(frontier))
        for point in frontier.points:
            assert_same(point.result.to_dict(),
                        dataclasses.asdict(point.result))

    def test_fleet_plan(self, fleet_response):
        plan = fleet_response.plan_object()
        assert plan.evaluations
        for evaluation in plan.evaluations:
            assert_same(evaluation.to_dict(), dataclasses.asdict(evaluation))
        assert list(fleet_response.plan["evaluations"]) == \
            [dataclasses.asdict(e) for e in plan.evaluations]

    def test_api_error(self):
        for error in (ApiError(code="invalid-field", message="bad", field="x"),
                      ApiError(code="engine-error", message="boom")):
            assert_same(error.to_dict(), dataclasses.asdict(error))

    def test_generic_fields_follow_asdict(self):
        odd = Odd(rows=[Leaf(1.0), Leaf(2.5)], table={"a": (1, 2)},
                  pairs=((Leaf(3.0), [4]),), maybe=Leaf(5.0),
                  anything={"deep": [1, {"x": 2}]}, nested=(("n", 1),))
        assert_same(encode(odd), dataclasses.asdict(odd))
        assert_same(encode(dataclasses.replace(odd, maybe=None)),
                    dataclasses.asdict(dataclasses.replace(odd, maybe=None)))
        restored = decode(Odd, json_round_trip(encode(odd)))
        assert restored.nested == (("n", 1),)

    def test_unresolvable_hints_fall_back_to_asdict(self):
        @dataclass(frozen=True)
        class Late:
            store: ResultStore | None
            rows: tuple[RequestMetrics, ...] = ()

        row = RequestMetrics.from_times(0, 0.0, 8, 4, 0.5, 1.0)
        late = Late(store=None, rows=(row,))
        assert_same(encode(late), dataclasses.asdict(late))

    def test_rejects_non_dataclasses(self):
        with pytest.raises(TypeError):
            encode({"not": "a dataclass"})
        with pytest.raises(TypeError):
            encode(SLO)


# ------------------------------------------------------------- round trips
class TestDecodeRoundTrip:
    def test_serving_report(self, serving_report):
        payload = json_round_trip(serving_report.to_dict())
        assert serving_report_from_dict(payload) == serving_report

    def test_cluster_report(self, faulted_cluster_report):
        report = faulted_cluster_report
        restored = cluster_report_from_dict(json_round_trip(report.to_dict()))
        assert restored == report
        rowless = cluster_report_from_dict(
            json_round_trip(report.to_dict(include_requests=False)))
        assert rowless == dataclasses.replace(report, requests=())

    def test_sweep_rows(self, sweep_response):
        for row in sweep_response.row_objects():
            assert SweepResult.from_dict(json_round_trip(row.to_dict())) == row

    def test_pareto_frontier(self, optimize_response):
        frontier = optimize_response.frontier_object()
        payload = json_round_trip(frontier.to_dict())
        assert frontier_from_dict(payload) == frontier

    def test_fleet_plan(self, fleet_response):
        plan = fleet_response.plan_object()
        again = api.FleetResponse.from_dict(
            json_round_trip(fleet_response.to_dict())).plan_object()
        assert again == plan

    def test_api_error(self):
        error = ApiError(code="invalid-field", message="bad", field="x")
        assert decode(ApiError, json_round_trip(error.to_dict())) == error

    def test_decode_policy(self):
        payload = {"ttft_s": 0.5, "tpot_s": 0.05, "added_later": 1}
        assert decode(SLO, payload) == SLO(ttft_s=0.5, tpot_s=0.05)
        with pytest.raises(TypeError):
            decode(RequestMetrics, {"request_id": 1})
        with pytest.raises(TypeError):
            decode(SLO, [0.5, 0.05])
        with pytest.raises(ValueError):
            decode(SLO, {"ttft_s": -1.0, "tpot_s": 0.05})

    def test_field_names_are_declaration_order(self):
        assert field_names(SweepResult) == tuple(
            f.name for f in dataclasses.fields(SweepResult))


# ----------------------------------------------------------------- aliasing
class TestNoAliasing:
    def test_mutating_an_encoding_leaves_report_and_next_encoding(
            self, faulted_cluster_report):
        report = faulted_cluster_report
        before = json.dumps(report.to_dict())
        first = report.to_dict()
        first["ttft"]["p50_s"] = -1.0
        first["replicas"][0]["completed"] = -1
        first["replica_timeline"][0][1] = -1
        first["requests"][0]["ttft_s"] = -1.0
        first["fault_events"][0]["replica"] = -1
        first["resilience"]["recovery_s"] = 0.0
        assert json.dumps(report.to_dict()) == before
        assert report.ttft.p50_s != -1.0
        assert report.replicas[0].completed != -1

    def test_mutable_generic_values_are_rebuilt(self):
        @dataclass(frozen=True)
        class Holder:
            items: list[int] = field(default_factory=list)
            table: dict[str, list[int]] = field(default_factory=dict)

        holder = Holder(items=[1, 2], table={"a": [3]})
        encoded = encode(holder)
        encoded["items"].append(9)
        encoded["table"]["a"].append(9)
        assert holder == Holder(items=[1, 2], table={"a": [3]})

    def test_encode_rows_builds_fresh_dicts(self, serving_report):
        rows = encode_rows(serving_report.requests)
        assert rows == [dataclasses.asdict(r) for r in serving_report.requests]
        rows[0]["ttft_s"] = -1.0
        assert encode_rows(serving_report.requests)[0]["ttft_s"] != -1.0


# ------------------------------------------------------------------- guard
def test_no_dataclasses_asdict_call_in_src():
    """Every result dataclass encodes through the codec, never ``asdict``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "dataclasses"
                    for alias in node.names if alias.name == "asdict"}
        if imported:
            offenders.append(f"{path.relative_to(SRC)}: imports asdict")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "asdict") or \
                    (isinstance(func, ast.Name) and func.id in imported):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders
