"""Frozen response envelopes of the unified API.

Every facade call returns one envelope per request kind, all sharing the
same provenance header:

``fingerprint``
    Content fingerprint of the *request* (``fingerprint("repro-api/v1",
    request)``) — the multi-tenant cache identity a gateway client can use
    to correlate submissions.
``served_from_store`` / ``new_simulations`` / ``store_hits`` /
``store_misses``
    Exactly what the run cost: a warm repeat of any request reports
    ``new_simulations == 0`` and a positive ``store_hits``, which is the
    property the gateway tests and the CI smoke gate assert.

Result payloads are carried as plain JSON dicts (the engines' own
``to_dict`` forms, encoded by :mod:`repro.codec`), so an envelope
serialises exactly over HTTP and the ``*_object`` helpers decode them back
into the engines' report dataclasses through the same codec for rich
consumers like the CLI printers.  ``to_dict`` /
``from_dict`` round-trip byte-exactly: a response decoded from the wire
re-encodes to the same JSON.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.api.errors import ApiError, ApiRequestError
from repro.api.requests import SCHEMA_VERSION
from repro.codec import decode


def _decode_response(cls, payload: Mapping[str, Any]):
    if not isinstance(payload, Mapping):
        raise ApiRequestError(ApiError(
            code="invalid-json",
            message=f"response body must be a JSON object, "
                    f"got {type(payload).__name__}"))
    data = dict(payload)
    kind = data.pop("kind", cls.kind)
    if kind != cls.kind:
        raise ApiRequestError(ApiError(
            code="invalid-kind",
            message=f"payload kind '{kind}' does not match "
                    f"'{cls.kind}'", field="kind"))
    version = data.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ApiRequestError(ApiError(
            code="unsupported-schema-version",
            message=f"schema_version {version!r} is not supported "
                    f"(this build speaks {SCHEMA_VERSION})",
            field="schema_version"))
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = [key for key in data if key not in names]
    if unknown:
        raise ApiRequestError(ApiError(
            code="unknown-field",
            message=f"unknown field '{unknown[0]}' for kind '{cls.kind}'",
            field=str(unknown[0])))
    return cls(**data)


@dataclass(frozen=True)
class _Response:
    """Provenance header every response kind shares."""

    kind: ClassVar[str] = ""

    fingerprint: str
    served_from_store: bool
    new_simulations: int
    store_hits: int
    store_misses: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-primitive payload; ``from_dict`` round-trips it exactly."""
        payload: dict[str, Any] = {"kind": self.kind,
                                   "schema_version": SCHEMA_VERSION}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        """Strictly decode an envelope of this kind."""
        decoded = _decode_response(cls, payload)
        return decoded


@dataclass(frozen=True)
class SimulateResponse(_Response):
    """A serving run's report (single-deployment or fleet-shaped)."""

    kind: ClassVar[str] = "simulate"

    #: Whether the run took the cluster path (``replicas > 1`` or faults);
    #: selects the decoder for :meth:`report_object`.
    fleet: bool = False
    #: ``ServingReport.to_dict()`` (with per-request rows) for single
    #: deployments; ``ClusterReport.to_dict(include_requests=False)`` for
    #: fleets — matching what the shared store persists, so cold and warm
    #: responses are byte-identical.
    report: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def report_object(self):
        """The decoded report dataclass (ServingReport / ClusterReport)."""
        from repro.serving.cluster import cluster_report_from_dict
        from repro.serving.simulator import serving_report_from_dict

        decode = cluster_report_from_dict if self.fleet else serving_report_from_dict
        return decode(dict(self.report))


@dataclass(frozen=True)
class FleetResponse(_Response):
    """A fleet-sizing plan (the ``repro-sim fleet --json`` payload shape)."""

    kind: ClassVar[str] = "fleet"

    plan: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def plan_object(self):
        """The decoded :class:`~repro.analysis.capacity.FleetPlan`."""
        from repro.analysis.capacity import FleetEvaluation, FleetPlan

        data = dict(self.plan)
        evaluations = tuple(decode(FleetEvaluation, row)
                            for row in data.get("evaluations", ()))
        return FleetPlan(model_name=data["model"], tpu_name=data["tpu"],
                         arrival_rate=data["arrival_rate"],
                         attainment_target=data["attainment_target"],
                         met=data["met"], replicas=data["replicas"],
                         evaluations=evaluations)


@dataclass(frozen=True)
class SweepResponse(_Response):
    """A sweep's result rows plus the engine's cache accounting."""

    kind: ClassVar[str] = "sweep"

    rows: tuple[Mapping[str, Any], ...] = ()
    #: Engine counters: simulations, graph_hits, point_hits, store_hits,
    #: store_misses — the exact provenance the CLI stats line prints.
    stats: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.rows, tuple):
            object.__setattr__(self, "rows", tuple(self.rows))

    def row_objects(self):
        """The decoded :class:`~repro.sweep.engine.SweepResult` rows."""
        from repro.sweep.engine import SweepResult

        return [SweepResult.from_dict(dict(row)) for row in self.rows]


@dataclass(frozen=True)
class OptimizeResponse(_Response):
    """A co-design search's Pareto frontier (``ParetoFrontier.to_dict``)."""

    kind: ClassVar[str] = "optimize"

    frontier: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def frontier_object(self):
        """The decoded :class:`~repro.optimize.pareto.ParetoFrontier`."""
        from repro.optimize.pareto import frontier_from_dict

        return frontier_from_dict(dict(self.frontier))


@dataclass(frozen=True)
class AutoconfigPreviewResponse(_Response):
    """Deterministic sizing analytics (always ``new_simulations == 0``)."""

    kind: ClassVar[str] = "autoconfig-preview"

    preview: Mapping[str, Any] = dataclasses.field(default_factory=dict)


#: kind -> response class (the inverse of each facade call).
RESPONSE_TYPES: dict[str, type] = {
    cls.kind: cls for cls in (SimulateResponse, FleetResponse, SweepResponse,
                              OptimizeResponse, AutoconfigPreviewResponse)
}


def response_from_dict(payload: Mapping[str, Any]):
    """Decode any response payload by its ``kind`` field."""
    if not isinstance(payload, Mapping):
        raise ApiRequestError(ApiError(
            code="invalid-json",
            message=f"response body must be a JSON object, "
                    f"got {type(payload).__name__}"))
    kind = payload.get("kind")
    if kind not in RESPONSE_TYPES:
        known = ", ".join(sorted(RESPONSE_TYPES))
        raise ApiRequestError(ApiError(
            code="invalid-kind",
            message=f"unknown response kind {kind!r}; "
                    f"choose one of: {known}", field="kind"))
    return RESPONSE_TYPES[kind].from_dict(payload)
