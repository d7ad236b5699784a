"""The query service: admission control, deadlines, load shedding.

:class:`QueryService` turns a library :class:`~repro.engine.facade.Engine`
into a *server*: requests are admitted into a bounded queue, executed by
a fixed number of service threads, and always answered with a structured
:class:`~repro.server.protocol.QueryResponse` — never a hang, never an
unhandled exception.

The control loop enforces three serving policies:

* **Admission control** — at most ``concurrency`` requests execute at
  once and at most ``queue_depth`` wait; the queue bounds worst-case
  latency instead of letting it grow without limit.
* **Load shedding** — a request arriving at a full queue is rejected
  *immediately* with ``queue_full`` and a ``retry_after`` hint derived
  from the observed service rate (an EWMA of service times): turning
  overload into fast, explicit back-pressure is what keeps a saturated
  server's goodput flat instead of collapsing.
* **Deadlines** — each request's budget starts at *admission* (queue
  wait counts, exactly as the client perceives it) and propagates as a
  :class:`~repro.engine.cancellation.CancelToken` into the engine's
  morsel cursor, so a timed-out parallel query stops within one
  morsel's worth of work. Requests whose budget is already spent when
  dequeued are answered ``deadline_exceeded`` without executing at all
  — the classic queue-expiry optimisation.
* **Request coalescing** (singleflight) — when a request is dequeued,
  waiting requests for the identical ``(query, strategy, workers,
  backend)`` are pulled out with it and answered from the same
  execution. This is
  sound because an :class:`Engine` binds one immutable database: the
  same query under the same strategy always produces the same answer.
  Coalescing happens at *dequeue*, never at admission, so the queue
  bound — and therefore shedding — behaves exactly as sized. Followers
  keep their own budgets: a cancelled follower is answered
  ``cancelled``, one that lapsed while coalesced gets the (computed)
  value with ``deadline_missed`` set, and if the leading execution does
  not produce a value the followers are re-queued rather than failed on
  its behalf. Only wire-form specs (JSON dicts) coalesce; in-process
  plan and ``Query`` objects are served individually.

Shutdown is graceful and idempotent: :meth:`drain` stops admission,
rejects everything still queued with ``shutting_down``, and waits for
in-flight requests to finish. The engine itself stays usable (and
``Engine.shutdown()`` remains idempotent) afterwards.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..engine.cancellation import CancelToken
from ..errors import (
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from ..obs import MetricsRegistry, metrics_registry, observe_span
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_CANCELLED,
    ERR_DEADLINE,
    ERR_EXECUTION,
    ERR_QUEUE_FULL,
    ERR_SHUTTING_DOWN,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    error_response,
    ok_response,
    parse_query_spec,
)

#: Lifecycle states.
_RUNNING = "running"
_DRAINING = "draining"
_STOPPED = "stopped"

#: Seed for the service-time EWMA before the first completion (a short
#: OLAP query); only used to shape the first retry_after hints.
_EWMA_SEED_SECONDS = 0.02
_EWMA_ALPHA = 0.2


@dataclass
class ServiceStats:
    """Counters of one service's lifetime, by request outcome."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Rejected at admission because the queue was full.
    shed: int = 0
    #: Rejected because the service was draining or stopped.
    rejected_draining: int = 0
    timed_out: int = 0
    cancelled: int = 0
    #: Completed requests answered from another request's execution.
    coalesced: int = 0
    queue_wait_seconds: float = 0.0
    service_seconds: float = 0.0

    def snapshot(self) -> dict:
        served = self.completed + self.failed + self.timed_out
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "rejected_draining": self.rejected_draining,
            "timed_out": self.timed_out,
            "cancelled": self.cancelled,
            "coalesced": self.coalesced,
            "shed_rate": self.shed / self.submitted if self.submitted else 0.0,
            "avg_queue_wait_seconds": (
                self.queue_wait_seconds / served if served else 0.0
            ),
            "avg_service_seconds": (
                self.service_seconds / served if served else 0.0
            ),
        }


class PendingQuery:
    """A submitted request: resolves to exactly one response.

    :meth:`response` blocks until the service answers; :meth:`cancel`
    flips the request's token so a queued request is answered
    ``cancelled`` at dequeue and a running one stops at the next morsel
    claim.
    """

    def __init__(self, request: QueryRequest) -> None:
        self.request = request
        self.token: Optional[CancelToken] = None
        self.enqueued_at: float = 0.0
        self._event = threading.Event()
        self._response: Optional[QueryResponse] = None

    @cached_property
    def coalesce_key(self) -> Optional[Tuple]:
        """Identity under which requests may share one execution, or
        ``None`` when the spec is not wire-form (an in-process plan or
        ``Query`` object has no cheap, reliable equality).

        An *execution* identity, derived from the bytes the client
        sent — never from the envelope's unverified ``fingerprint``
        claim. Cached, so a request is serialised at most once, on
        first need: the service compares keys under its lock on every
        dequeue, and a dequeue that finds the queue empty never asks.
        """
        request = self.request
        if not isinstance(request.query, dict):
            return None
        try:
            spec_key = json.dumps(request.query, sort_keys=True)
        except (TypeError, ValueError):
            return None
        return (
            spec_key,
            request.strategy,
            request.workers,
            request.backend,
            request.shards,
        )

    def resolve(self, response: QueryResponse) -> None:
        self._response = response
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def cancel(self) -> None:
        if self.token is not None:
            self.token.cancel()

    def response(self, timeout: Optional[float] = None) -> QueryResponse:
        if not self._event.wait(timeout):
            raise ReproError(
                f"request {self.request.id} did not resolve within "
                f"{timeout}s"
            )
        assert self._response is not None
        return self._response


class QueryService:
    """A concurrent, deadline-aware front end for one engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.facade.Engine` to serve. Shared
        safely across the service threads (the plan cache is locked;
        parallel morsel batches serialise on the engine's pool).
    concurrency:
        Service threads — the number of requests executing at once.
    queue_depth:
        Admitted-but-waiting requests beyond which submissions are shed.
    default_deadline:
        Budget in seconds applied to requests that do not carry their
        own; ``None`` means no deadline unless the request sets one.
    coalesce:
        Answer queued duplicates of a dequeued request from its one
        execution (see the module docstring). On by default; turn off
        to force every admitted request through the engine.
    own_engine:
        When True, :meth:`shutdown` also shuts the engine's worker pool
        down (the ``python -m repro.server`` entry point sets this).
    registry:
        The :class:`~repro.obs.MetricsRegistry` the service reports
        into (default: the process-wide registry). The service
        registers its counters plus live queue depth as the
        ``service`` stat source and times the admit / queue-wait /
        serve spans.

    The service is a context manager; threads start lazily on the first
    submission.
    """

    def __init__(
        self,
        engine,
        *,
        concurrency: int = 2,
        queue_depth: int = 32,
        default_deadline: Optional[float] = None,
        coalesce: bool = True,
        own_engine: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if concurrency < 1:
            raise ReproError("service concurrency must be at least 1")
        if queue_depth < 1:
            raise ReproError("service queue depth must be at least 1")
        if default_deadline is not None and default_deadline <= 0:
            raise ReproError("default deadline must be positive seconds")
        self.engine = engine
        self.concurrency = concurrency
        self.queue_depth = queue_depth
        self.default_deadline = default_deadline
        self.coalesce = coalesce
        self.own_engine = own_engine
        self.stats = ServiceStats()
        self._cond = threading.Condition()
        self._queue: Deque[PendingQuery] = deque()
        self._threads: List[threading.Thread] = []
        self._state = _RUNNING
        self._in_flight = 0
        self._ewma_service = _EWMA_SEED_SECONDS
        self.registry = (
            registry if registry is not None else metrics_registry()
        )
        self.registry.register_source("service", self._source_snapshot)

    def _source_snapshot(self) -> dict:
        """The service's counters plus its live backlog (registered as
        the ``service`` stat source)."""
        snap = self.stats.snapshot()
        snap["queue_depth"] = len(self._queue)
        snap["in_flight"] = self._in_flight
        snap["state"] = self._state
        snap["concurrency"] = self.concurrency
        snap["queue_capacity"] = self.queue_depth
        return snap

    def stats_snapshot(self) -> dict:
        """The full telemetry snapshot of this service's registry —
        what a wire ``stats`` request is answered with."""
        return self.registry.snapshot()

    # -- lifecycle -------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def _ensure_started(self) -> None:
        # Caller holds self._cond.
        while len(self._threads) < self.concurrency:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, reject everything queued, wait for in-flight
        requests to finish. Returns whether the drain completed within
        ``timeout`` (``None`` waits indefinitely). Idempotent."""
        with self._cond:
            if self._state == _RUNNING:
                self._state = _DRAINING
            rejected = list(self._queue)
            self._queue.clear()
            self.stats.rejected_draining += len(rejected)
            self._cond.notify_all()
        for pending in rejected:
            pending.resolve(
                error_response(
                    pending.request,
                    ERR_SHUTTING_DOWN,
                    "server is draining; request was still queued",
                )
            )
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            while self._in_flight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Graceful stop: :meth:`drain`, then join the service threads
        (and the engine's pool when ``own_engine``). Idempotent."""
        drained = self.drain(timeout)
        with self._cond:
            self._state = _STOPPED
            threads = list(self._threads)
            self._cond.notify_all()
        for thread in threads:
            thread.join(timeout=timeout)
        with self._cond:
            self._threads = [t for t in self._threads if t.is_alive()]
        if self.own_engine:
            self.engine.shutdown()
        return drained

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- admission -------------------------------------------------------

    def retry_after_hint(self) -> float:
        """Expected seconds until the backlog has space: queue plus
        in-flight work over the service rate (EWMA service time times
        requests per thread)."""
        backlog = len(self._queue) + self._in_flight
        return max(
            round(backlog * self._ewma_service / self.concurrency, 4),
            0.001,
        )

    def submit(self, request) -> PendingQuery:
        """Admit (or immediately reject) one request.

        ``request`` is a :class:`QueryRequest`, or a bare query (a
        ``LogicalPlan``, a wire spec dict, a legacy ``Query``) which is
        wrapped in a default request.
        Always returns a :class:`PendingQuery`; rejections resolve
        before this method returns.
        """
        begin = time.perf_counter()
        if not isinstance(request, QueryRequest):
            request = QueryRequest(query=request)
        pending = PendingQuery(request)
        with self._cond:
            self.stats.submitted += 1
            if self._state != _RUNNING:
                self.stats.rejected_draining += 1
                rejection = error_response(
                    request,
                    ERR_SHUTTING_DOWN,
                    f"server is {self._state}; not accepting requests",
                )
            elif len(self._queue) >= self.queue_depth:
                self.stats.shed += 1
                rejection = error_response(
                    request,
                    ERR_QUEUE_FULL,
                    f"admission queue is full "
                    f"({self.queue_depth} waiting, "
                    f"{self._in_flight} in flight)",
                    retry_after=self.retry_after_hint(),
                )
            else:
                self._ensure_started()
                budget = (
                    request.deadline
                    if request.deadline is not None
                    else self.default_deadline
                )
                pending.token = (
                    CancelToken.after(budget)
                    if budget is not None
                    else CancelToken()
                )
                pending.enqueued_at = time.monotonic()
                self._queue.append(pending)
                self.stats.admitted += 1
                self._cond.notify()
                observe_span(
                    "admit", time.perf_counter() - begin, self.registry
                )
                return pending
        pending.resolve(rejection)
        observe_span("admit", time.perf_counter() - begin, self.registry)
        return pending

    def execute(self, request, timeout: Optional[float] = None) -> QueryResponse:
        """Blocking convenience: :meth:`submit` and wait for the
        response."""
        return self.submit(request).response(timeout)

    # -- serving ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while self._state == _RUNNING and not self._queue:
                    self._cond.wait()
                if not self._queue:
                    # Draining or stopped with nothing left to serve.
                    return
                pending = self._queue.popleft()
                followers = self._take_duplicates(pending)
                self._in_flight += 1 + len(followers)
            try:
                self._serve(pending, followers)
            finally:
                with self._cond:
                    self._in_flight -= 1 + len(followers)
                    self._cond.notify_all()

    def _take_duplicates(self, pending: PendingQuery) -> List[PendingQuery]:
        # Caller holds self._cond. Pull queued requests identical to the
        # one just dequeued; they will be answered from its execution.
        if not self.coalesce or not self._queue:
            return []
        key = pending.coalesce_key
        if key is None:
            return []
        followers = [
            other for other in self._queue if other.coalesce_key == key
        ]
        if followers:
            matched = set(map(id, followers))
            self._queue = deque(
                other for other in self._queue if id(other) not in matched
            )
        return followers

    def _resolve_followers(
        self,
        followers: Sequence[PendingQuery],
        leader: PendingQuery,
        response: QueryResponse,
    ) -> None:
        """Answer coalesced requests from the leading execution's value,
        honouring each follower's own token."""
        resolved_at = time.monotonic()
        for follower in followers:
            queue_wait = resolved_at - follower.enqueued_at
            metrics: Dict[str, Any] = {
                "queue_wait_seconds": queue_wait,
                "service_seconds": 0.0,
                "coalesced": True,
            }
            token = follower.token
            if token is not None and token.cancelled:
                with self._cond:
                    self.stats.cancelled += 1
                    self.stats.queue_wait_seconds += queue_wait
                follower.resolve(
                    error_response(
                        follower.request,
                        ERR_CANCELLED,
                        f"request {follower.request.id} was cancelled "
                        f"while coalesced with {leader.request.id}",
                        metrics=metrics,
                    )
                )
                continue
            if token is not None and token.deadline is not None:
                # The value exists either way — deliver it and report
                # the miss, as for an uninterruptible serial kernel.
                metrics["deadline_missed"] = token.expired()
            with self._cond:
                self.stats.completed += 1
                self.stats.coalesced += 1
                self.stats.queue_wait_seconds += queue_wait
            follower.resolve(
                ok_response(follower.request, response.value, metrics=metrics)
            )

    def _requeue(self, followers: Sequence[PendingQuery]) -> None:
        """The leading execution produced no shareable value (it timed
        out, was cancelled, or failed): give its followers their own
        turn instead of failing them on the leader's behalf."""
        rejected: List[PendingQuery] = []
        with self._cond:
            if self._state == _RUNNING:
                self._queue.extendleft(reversed(followers))
                self._cond.notify_all()
            else:
                rejected = list(followers)
                self.stats.rejected_draining += len(rejected)
        for pending in rejected:
            pending.resolve(
                error_response(
                    pending.request,
                    ERR_SHUTTING_DOWN,
                    "server is draining; request was still queued",
                )
            )

    def _serve(
        self,
        pending: PendingQuery,
        followers: Sequence[PendingQuery] = (),
    ) -> None:
        request = pending.request
        token = pending.token
        dequeued = time.monotonic()
        queue_wait = dequeued - pending.enqueued_at
        observe_span("queue_wait", queue_wait, self.registry)
        metrics: Dict[str, Any] = {
            "queue_wait_seconds": queue_wait,
            "service_seconds": 0.0,
        }

        if token is not None and token.stop_requested(dequeued):
            # Queue expiry: the budget was spent while waiting — answer
            # without executing.
            with self._cond:
                if token.cancelled:
                    self.stats.cancelled += 1
                else:
                    self.stats.timed_out += 1
                self.stats.queue_wait_seconds += queue_wait
            code = ERR_CANCELLED if token.cancelled else ERR_DEADLINE
            pending.resolve(
                error_response(
                    request,
                    code,
                    f"request {request.id} spent {queue_wait:.3f}s queued, "
                    f"exhausting its budget before execution",
                    metrics=metrics,
                )
            )
            if followers:
                self._requeue(followers)
            return

        response = self._run(request, token, metrics, dequeued)
        service_seconds = time.monotonic() - dequeued
        metrics["service_seconds"] = service_seconds
        observe_span("serve", service_seconds, self.registry)
        with self._cond:
            self.stats.queue_wait_seconds += queue_wait
            self.stats.service_seconds += service_seconds
            if response.ok:
                self.stats.completed += 1
                self._ewma_service += _EWMA_ALPHA * (
                    service_seconds - self._ewma_service
                )
            elif response.error_code == ERR_DEADLINE:
                self.stats.timed_out += 1
            elif response.error_code == ERR_CANCELLED:
                self.stats.cancelled += 1
            else:
                self.stats.failed += 1
        pending.resolve(response)
        if followers:
            if response.ok:
                self._resolve_followers(followers, pending, response)
            else:
                self._requeue(followers)

    def _run(
        self,
        request: QueryRequest,
        token: Optional[CancelToken],
        metrics: Dict[str, Any],
        dequeued: float,
    ) -> QueryResponse:
        try:
            query = parse_query_spec(request.query)
        except ProtocolError as exc:
            return error_response(
                request, ERR_BAD_REQUEST, str(exc), metrics=metrics
            )
        try:
            result = self.engine.execute(
                query,
                request.strategy,
                workers=request.workers,
                backend=request.backend,
                shards=request.shards,
                cancel=token,
            )
        except QueryTimeout as exc:
            return error_response(
                request, ERR_DEADLINE, str(exc), metrics=metrics
            )
        except QueryCancelled as exc:
            return error_response(
                request, ERR_CANCELLED, str(exc), metrics=metrics
            )
        except ReproError as exc:
            return error_response(
                request, ERR_EXECUTION, str(exc), metrics=metrics
            )
        except Exception as exc:  # defensive: a response, never a hang
            return error_response(
                request,
                ERR_EXECUTION,
                f"{type(exc).__name__}: {exc}",
                metrics=metrics,
            )
        run_metrics = result.report.metrics
        if run_metrics is not None:
            run_metrics.queue_wait_seconds = metrics["queue_wait_seconds"]
            run_metrics.service_seconds = time.monotonic() - dequeued
            metrics["wall_seconds"] = run_metrics.wall_seconds
            metrics["plan_cache"] = run_metrics.plan_cache
        if token is not None and token.deadline is not None:
            # Completed, but possibly after the budget: a serial kernel
            # cannot be interrupted, so the miss is reported rather than
            # enforced.
            metrics["deadline_missed"] = token.expired()
        return ok_response(request, result.value, metrics=metrics)
