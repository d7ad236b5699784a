"""Request/response protocol of the query service.

One wire format serves both transports: the in-process
:class:`~repro.server.service.QueryService` API passes
:class:`QueryRequest` / :class:`QueryResponse` objects directly, and
the TCP server (:mod:`repro.server.tcp`) carries the same objects as
newline-delimited JSON (one object per line, one response per request,
in order).

On the wire a request carries its query in one of two spellings:

* a logical plan envelope (``{"plan": {...}, "fingerprint": "ir:..."}``
  — the structural JSON of :mod:`repro.plan.serde`, the primary form;
  :class:`QueryRequest` serialises a
  :class:`~repro.plan.ops.LogicalPlan` this way automatically);
* a microbenchmark spec (``{"micro": "q1", "args": {"sel": 30}}`` —
  the constructors in :mod:`repro.datagen.microbench`).

In-process requests may also hold what ``Engine.execute`` accepts
directly: a ``LogicalPlan`` or a legacy
:class:`~repro.plan.logical.Query` object.

Besides queries, the wire carries one control operation: a **stats
request** (``{"op": "stats"}``), answered with the server's full
telemetry snapshot (plan-cache and dataset-cache hit rates, pool
utilization, queue depth, shed counts, span timings, per-strategy
event counters, slow-query and error logs). Stats requests bypass the
admission queue — observability must keep working exactly when the
queue is full.

Responses are structured, never exceptions: ``status`` is ``"ok"`` or
``"error"``, and errors carry a machine-readable ``code`` plus, for
load shedding, a ``retry_after`` hint in seconds (the
``Retry-After``-style contract: the client should back off at least
that long before resubmitting).
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..errors import ReproError

#: Response statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Machine-readable error codes.
ERR_QUEUE_FULL = "queue_full"  #: shed at admission; retry_after is set
ERR_SHUTTING_DOWN = "shutting_down"  #: rejected by a draining server
ERR_DEADLINE = "deadline_exceeded"  #: the request's deadline passed
ERR_CANCELLED = "cancelled"  #: the caller withdrew the request
ERR_BAD_REQUEST = "bad_request"  #: unparseable request or query spec
ERR_EXECUTION = "execution_failed"  #: the engine raised while running

#: Request operations. Requests without an ``op`` field are queries
#: (the pre-stats wire format stays valid byte for byte).
OP_QUERY = "query"
OP_STATS = "stats"

#: Microbench query constructors addressable over the wire.
_MICRO_QUERIES: Dict[str, Callable] = {}


def _micro_registry() -> Dict[str, Callable]:
    # Imported lazily: protocol parsing must not pull the whole datagen
    # package in for clients that only decode responses.
    if not _MICRO_QUERIES:
        from ..datagen import microbench as mb

        _MICRO_QUERIES.update(
            {"q1": mb.q1, "q2": mb.q2, "q3": mb.q3, "q4": mb.q4, "q5": mb.q5}
        )
    return _MICRO_QUERIES


class ProtocolError(ReproError):
    """A request or query spec does not parse."""


def parse_query_spec(spec: Any) -> Any:
    """Resolve a wire query spec into what ``Engine.execute`` accepts.

    ``{"plan": {...}}`` envelopes decode to a
    :class:`~repro.plan.ops.LogicalPlan` (fingerprint-verified);
    ``{"micro": name, "args": {...}}`` dicts call the named
    microbenchmark constructor; ``LogicalPlan`` / legacy ``Query``
    objects (in-process requests) pass through untouched. Anything
    else — a bare query-name string included — is a
    :class:`ProtocolError`.
    """
    if isinstance(spec, dict):
        if "plan" in spec:
            from ..errors import PlanError
            from ..plan.serde import plan_from_wire

            try:
                return plan_from_wire(spec)
            except PlanError as exc:
                raise ProtocolError(str(exc)) from exc
        if "micro" not in spec:
            raise ProtocolError(
                "query spec dicts need a 'plan' envelope or a 'micro' "
                "key naming a microbenchmark constructor"
            )
        registry = _micro_registry()
        name = spec["micro"]
        builder = registry.get(name)
        if builder is None:
            raise ProtocolError(
                f"unknown microbenchmark query {name!r}; "
                f"known: {sorted(registry)}"
            )
        args = spec.get("args", {})
        if not isinstance(args, dict):
            raise ProtocolError("query spec 'args' must be an object")
        try:
            return builder(**args)
        except TypeError as exc:
            raise ProtocolError(
                f"bad arguments for microbenchmark {name!r}: {exc}"
            ) from exc
        except ReproError as exc:
            raise ProtocolError(str(exc)) from exc
    from ..plan.logical import Query
    from ..plan.ops import LogicalPlan

    if isinstance(spec, (LogicalPlan, Query)):
        return spec
    if isinstance(spec, str):
        raise ProtocolError(
            f"query name strings are no longer accepted (got {spec!r}); "
            "send the operator tree — "
            f'repro.tpch.logical_plan("{spec}") serialises as a '
            "{'plan': ...} envelope automatically"
        )
    raise ProtocolError(
        f"unsupported query spec of type {type(spec).__name__}"
    )


def encode_value(value: Any) -> Any:
    """Make a query answer JSON-safe (NumPy scalars/arrays → Python)."""
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return value


@dataclass
class QueryRequest:
    """One query submission.

    ``deadline`` is a relative budget in seconds, measured from
    *admission* (queue wait counts against it — that is what the client
    experiences). ``workers`` overrides the engine's worker count for
    this request; ``backend`` pins the execution backend
    (``"instrumented"`` or ``"vectorized"``) instead of the serving
    default; ``shards`` overrides the engine's shard-process count for
    this request (``0`` forces in-process execution); ``id`` is echoed
    on the response (auto-generated when omitted).
    """

    query: Any
    strategy: str = "auto"
    workers: Optional[int] = None
    deadline: Optional[float] = None
    backend: Optional[str] = None
    shards: Optional[int] = None
    id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])

    def to_wire(self) -> dict:
        from ..plan.ops import LogicalPlan

        query = self.query
        if isinstance(query, LogicalPlan):
            from ..plan.serde import plan_to_wire

            query = plan_to_wire(query)
        elif not isinstance(query, dict):
            raise ProtocolError(
                "only LogicalPlan trees and microbench spec dicts "
                f"serialise, not a {type(query).__name__}; legacy "
                "Query objects are in-process only and TPC-H queries "
                "travel as repro.tpch.logical_plan(name)"
            )
        wire: dict = {"id": self.id, "query": query}
        if self.strategy != "auto":
            wire["strategy"] = self.strategy
        if self.workers is not None:
            wire["workers"] = self.workers
        if self.deadline is not None:
            wire["deadline"] = self.deadline
        if self.backend is not None:
            wire["backend"] = self.backend
        if self.shards is not None:
            wire["shards"] = self.shards
        return wire

    @classmethod
    def from_wire(cls, wire: Any) -> "QueryRequest":
        if not isinstance(wire, dict):
            raise ProtocolError("a request must be a JSON object")
        if "query" not in wire:
            raise ProtocolError("a request needs a 'query' field")
        strategy = wire.get("strategy", "auto")
        if not isinstance(strategy, str):
            raise ProtocolError("'strategy' must be a string")
        workers = wire.get("workers")
        if workers is not None and (
            not isinstance(workers, int) or workers < 1
        ):
            raise ProtocolError("'workers' must be a positive integer")
        deadline = wire.get("deadline")
        if deadline is not None:
            if not isinstance(deadline, (int, float)) or deadline <= 0:
                raise ProtocolError("'deadline' must be positive seconds")
            deadline = float(deadline)
        backend = wire.get("backend")
        if backend is not None:
            from ..engine.facade import BACKENDS

            if backend not in BACKENDS:
                raise ProtocolError(
                    f"unknown backend {backend!r}; "
                    f"known: {list(BACKENDS)}"
                )
        shards = wire.get("shards")
        if shards is not None and (
            not isinstance(shards, int) or shards < 0
        ):
            raise ProtocolError(
                "'shards' must be a non-negative integer"
            )
        req_id = wire.get("id")
        kwargs = {} if req_id is None else {"id": str(req_id)}
        return cls(
            query=wire["query"],
            strategy=strategy,
            workers=workers,
            deadline=deadline,
            backend=backend,
            shards=shards,
            **kwargs,
        )


@dataclass
class StatsRequest:
    """A telemetry scrape: answered with the registry snapshot.

    Served directly by the transport — never queued, never shed — so a
    saturated server still answers ``stats`` promptly.
    """

    id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])

    def to_wire(self) -> dict:
        return {"op": OP_STATS, "id": self.id}

    @classmethod
    def from_wire(cls, wire: Any) -> "StatsRequest":
        if not isinstance(wire, dict):
            raise ProtocolError("a request must be a JSON object")
        req_id = wire.get("id")
        return cls() if req_id is None else cls(id=str(req_id))


def parse_request(wire: Any):
    """One wire object into a :class:`QueryRequest` or
    :class:`StatsRequest`, dispatched on the optional ``op`` field."""
    if not isinstance(wire, dict):
        raise ProtocolError("a request must be a JSON object")
    op = wire.get("op", OP_QUERY)
    if op == OP_STATS:
        return StatsRequest.from_wire(wire)
    if op != OP_QUERY:
        raise ProtocolError(
            f"unknown request op {op!r}; known: "
            f"{sorted((OP_QUERY, OP_STATS))}"
        )
    return QueryRequest.from_wire(wire)


@dataclass
class ErrorInfo:
    """Structured error on a response."""

    code: str
    message: str
    #: Back-off hint in seconds; set on ``queue_full`` rejections.
    retry_after: Optional[float] = None

    def to_wire(self) -> dict:
        wire = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            wire["retry_after"] = self.retry_after
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "ErrorInfo":
        return cls(
            code=str(wire.get("code", "unknown")),
            message=str(wire.get("message", "")),
            retry_after=wire.get("retry_after"),
        )


@dataclass
class QueryResponse:
    """The outcome of one request: an answer or a structured error.

    ``metrics`` carries per-request serving numbers — at least
    ``queue_wait_seconds`` and ``service_seconds`` for requests that
    reached a service worker, plus the engine's wall time and plan-cache
    outcome for completed ones.
    """

    id: str
    status: str
    value: Optional[Any] = None
    error: Optional[ErrorInfo] = None
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def error_code(self) -> Optional[str]:
        return self.error.code if self.error is not None else None

    @property
    def shed(self) -> bool:
        """Whether the request was load-shed at admission."""
        return self.error_code in (ERR_QUEUE_FULL, ERR_SHUTTING_DOWN)

    @property
    def timed_out(self) -> bool:
        return self.error_code == ERR_DEADLINE

    def to_wire(self) -> dict:
        wire: dict = {"id": self.id, "status": self.status}
        if self.value is not None:
            wire["value"] = encode_value(self.value)
        if self.error is not None:
            wire["error"] = self.error.to_wire()
        if self.metrics:
            wire["metrics"] = self.metrics
        return wire

    @classmethod
    def from_wire(cls, wire: Any) -> "QueryResponse":
        if not isinstance(wire, dict):
            raise ProtocolError("a response must be a JSON object")
        error = wire.get("error")
        return cls(
            id=str(wire.get("id", "")),
            status=str(wire.get("status", STATUS_ERROR)),
            value=wire.get("value"),
            error=ErrorInfo.from_wire(error) if error is not None else None,
            metrics=wire.get("metrics", {}),
        )


def ok_response(
    request: QueryRequest, value: Any, metrics: Optional[dict] = None
) -> QueryResponse:
    return QueryResponse(
        id=request.id,
        status=STATUS_OK,
        value=encode_value(value),
        metrics=metrics or {},
    )


def error_response(
    request: QueryRequest,
    code: str,
    message: str,
    *,
    retry_after: Optional[float] = None,
    metrics: Optional[dict] = None,
) -> QueryResponse:
    return QueryResponse(
        id=request.id,
        status=STATUS_ERROR,
        error=ErrorInfo(code=code, message=message, retry_after=retry_after),
        metrics=metrics or {},
    )


def dump_line(wire: dict) -> bytes:
    """One protocol object as a newline-terminated JSON line."""
    return (json.dumps(wire, separators=(",", ":")) + "\n").encode("utf-8")


def load_line(line: bytes) -> Any:
    """Parse one wire line; raises :class:`ProtocolError` on bad JSON."""
    try:
        return json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed JSON line: {exc}") from exc
