"""Query service semantics: admission, shedding, deadlines, drain.

Policy tests use a duck-typed stub engine whose execution blocks on an
event, making queue states deterministic; one end-to-end test runs the
real :class:`Engine` to pin the served answer to the library answer.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.datagen import microbench as mb
from repro.engine import Engine
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.server import (
    ERR_CANCELLED,
    ERR_DEADLINE,
    ERR_EXECUTION,
    ERR_QUEUE_FULL,
    ERR_SHUTTING_DOWN,
    QueryRequest,
    QueryService,
)


#: label -> the µQ1 selectivity standing in for it on the wire.
_SELS = {}


def spec(label):
    """An opaque wire-form query per ``label`` for the policy tests: a
    µQ1 spec dict (so it parses and coalesces like any wire query)
    whose selectivity encodes the label; the stub engine never runs it
    and reports the label back in ``calls``."""
    sel = _SELS.setdefault(label, len(_SELS))
    return {"micro": "q1", "args": {"sel": sel}}


def label_of(query):
    for label, sel in _SELS.items():
        if query == mb.q1(sel):
            return label
    return query  # an in-process query object: recorded as is


class StubEngine:
    """Duck-typed engine: optionally blocks until released, counts
    calls, honours the cancel token like the real executor does."""

    def __init__(self, gate=None, fail=False):
        self.gate = gate  # threading.Event the run waits for
        self.fail = fail
        self.calls = []
        self.shutdowns = 0

    def execute(
        self,
        query,
        strategy="auto",
        *,
        workers=None,
        backend=None,
        shards=None,
        cancel=None,
    ):
        query = label_of(query)
        self.calls.append(query)
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0), "stub gate never opened"
        if cancel is not None:
            cancel.check("stub query")
        if self.fail:
            raise ReproError("injected engine failure")
        return SimpleNamespace(
            value={"echo": query},
            report=SimpleNamespace(metrics=None),
        )

    def shutdown(self):
        self.shutdowns += 1


def fill_one_worker(service, gate):
    """Occupy the single service thread and wait until it is in flight."""
    blocker = service.submit(QueryRequest(query=spec("blocker")))
    deadline = time.monotonic() + 5.0
    while service.in_flight == 0:
        assert time.monotonic() < deadline, "worker never picked up"
        time.sleep(0.005)
    return blocker


class TestHappyPath:
    def test_served_answer_matches_library_call(self, micro_db):
        with Engine(db=micro_db, workers=2) as engine:
            direct = engine.execute(mb.q1(30), "swole", workers=1)
            with QueryService(engine, concurrency=2) as service:
                response = service.execute(
                    QueryRequest(query=mb.q1(30), strategy="swole")
                )
            assert response.ok
            assert response.value == pytest.approx(direct.value)
            assert response.metrics["queue_wait_seconds"] >= 0.0
            assert response.metrics["service_seconds"] > 0.0
            assert response.metrics["plan_cache"] in ("hit", "miss")

    def test_wire_spec_and_bare_query_submissions(self, micro_db):
        with Engine(db=micro_db, workers=1) as engine:
            with QueryService(engine, concurrency=1) as service:
                via_spec = service.execute(
                    QueryRequest(
                        query={"micro": "q1", "args": {"sel": 30}},
                        strategy="swole",
                    )
                )
                bare = service.execute(mb.q1(30))  # wrapped automatically
            assert via_spec.ok and bare.ok
            assert via_spec.value == pytest.approx(bare.value)

    def test_plan_envelope_served(self, micro_db):
        # An operator tree submitted as its wire form (structural JSON +
        # IR fingerprint) answers identically to the in-process plan.
        from repro.plan import AggSpec, PlanBuilder, plan_to_wire
        from repro.plan.expressions import Col
        from repro.server.protocol import encode_value

        plan = (
            PlanBuilder.scan("R")
            .filter(Col("r_x") < 30)
            .group_agg(
                AggSpec("sum", Col("r_a") * Col("r_b"), name="sum")
            )
            .build("wire-uq1")
        )
        with Engine(db=micro_db, workers=1) as engine:
            direct = engine.execute(plan, "swole", workers=1)
            with QueryService(engine, concurrency=1) as service:
                response = service.execute(
                    QueryRequest(query=plan_to_wire(plan), strategy="swole")
                )
            assert response.ok
            assert response.value == encode_value(direct.value)
            assert response.metrics["plan_cache"] == "hit"

    def test_stats_count_outcomes(self):
        service = QueryService(StubEngine(), concurrency=1)
        service.execute(spec("a"))
        service.execute(spec("b"))
        service.shutdown()
        snap = service.stats.snapshot()
        assert snap["submitted"] == snap["completed"] == 2
        assert snap["shed"] == 0
        assert snap["avg_service_seconds"] >= 0.0

    def test_execution_error_is_structured(self):
        with QueryService(StubEngine(fail=True), concurrency=1) as service:
            response = service.execute(spec("boom"))
        assert response.error_code == ERR_EXECUTION
        assert "injected" in response.error.message
        assert service.stats.failed == 1

    def test_unexpected_engine_exception_is_recorded(self):
        # A non-ReproError escaping the engine is a bug, not a query
        # error: the request still gets execution_failed, and the
        # registry's error log and counter keep the evidence.
        class CrashingEngine(StubEngine):
            def execute(self, query, *args, **kwargs):
                raise RuntimeError("engine bug")

        registry = MetricsRegistry()
        with QueryService(
            CrashingEngine(), concurrency=1, registry=registry
        ) as service:
            response = service.execute(spec("crash"))
        assert response.error_code == ERR_EXECUTION
        assert response.error.message == "RuntimeError: engine bug"
        snap = registry.snapshot()
        assert snap["counters"]["service_unexpected_errors_total"] == 1
        (entry,) = snap["errors"]["entries"]
        assert entry["source"] == "service.execute"
        assert entry["message"] == "RuntimeError: engine bug"
        assert entry["id"] == response.id

    def test_bad_query_spec_is_structured(self):
        with QueryService(StubEngine(), concurrency=1) as service:
            response = service.execute(
                QueryRequest(query={"micro": "q99"})
            )
        assert response.error_code == "bad_request"

    def test_name_string_is_a_bad_request_with_the_replacement(self):
        stub = StubEngine()
        with QueryService(stub, concurrency=1) as service:
            response = service.execute(QueryRequest(query="Q6"))
        assert response.error_code == "bad_request"
        assert 'repro.tpch.logical_plan("Q6")' in response.error.message
        assert stub.calls == []


class TestShedding:
    def test_full_queue_sheds_with_retry_after(self):
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        service = QueryService(stub, concurrency=1, queue_depth=1)
        try:
            blocker = fill_one_worker(service, gate)
            queued = service.submit(QueryRequest(query=spec("queued")))
            shed = service.submit(QueryRequest(query=spec("shed me")))
            assert shed.done()  # rejected synchronously
            response = shed.response()
            assert response.error_code == ERR_QUEUE_FULL
            assert response.shed
            assert response.error.retry_after > 0.0
            assert "queue is full" in response.error.message
            gate.set()
            assert blocker.response(timeout=10.0).ok
            assert queued.response(timeout=10.0).ok
        finally:
            gate.set()
            service.shutdown()
        snap = service.stats.snapshot()
        assert snap["shed"] == 1
        assert snap["completed"] == 2
        assert snap["shed_rate"] == pytest.approx(1 / 3)
        assert "shed me" not in stub.calls  # never executed

    def test_retry_after_scales_with_backlog(self):
        gate = threading.Event()
        service = QueryService(
            StubEngine(gate=gate), concurrency=1, queue_depth=8
        )
        try:
            fill_one_worker(service, gate)
            small = service.retry_after_hint()
            for i in range(8):
                service.submit(QueryRequest(query=spec(f"q{i}")))
            assert service.retry_after_hint() > small
        finally:
            gate.set()
            service.shutdown()


class TestDeadlines:
    def test_queue_expiry_answers_without_executing(self):
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        service = QueryService(stub, concurrency=1, queue_depth=4)
        try:
            blocker = fill_one_worker(service, gate)
            doomed = service.submit(
                QueryRequest(query=spec("doomed"), deadline=0.05)
            )
            time.sleep(0.1)  # let the budget lapse while queued
            gate.set()
            response = doomed.response(timeout=10.0)
            assert response.error_code == ERR_DEADLINE
            assert "queued" in response.error.message
            assert blocker.response(timeout=10.0).ok
        finally:
            gate.set()
            service.shutdown()
        assert "doomed" not in stub.calls
        assert service.stats.timed_out == 1

    def test_default_deadline_applies_to_bare_requests(self):
        service = QueryService(StubEngine(), concurrency=1, default_deadline=5.0)
        try:
            pending = service.submit(QueryRequest(query=spec("q")))
            assert pending.token.deadline is not None
            assert pending.response(timeout=10.0).ok
        finally:
            service.shutdown()

    def test_cancelling_a_queued_request(self):
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        service = QueryService(stub, concurrency=1, queue_depth=4)
        try:
            blocker = fill_one_worker(service, gate)
            queued = service.submit(QueryRequest(query=spec("withdrawn")))
            queued.cancel()
            gate.set()
            assert queued.response(timeout=10.0).error_code == ERR_CANCELLED
            assert blocker.response(timeout=10.0).ok
        finally:
            gate.set()
            service.shutdown()
        assert "withdrawn" not in stub.calls


class TestCoalescing:
    def queue_behind_blocker(self, stub, service, gate, specs):
        """Occupy the worker, queue ``specs``, then open the gate."""
        blocker = fill_one_worker(service, gate)
        pendings = [
            service.submit(
                QueryRequest(query=spec(s) if isinstance(s, str) else s)
            )
            for s in specs
        ]
        gate.set()
        return blocker, pendings

    def test_queued_duplicates_share_one_execution(self):
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        service = QueryService(stub, concurrency=1, queue_depth=8)
        try:
            blocker, pendings = self.queue_behind_blocker(
                stub, service, gate, ["same", "same", "same", "other"]
            )
            responses = [p.response(timeout=10.0) for p in pendings]
        finally:
            gate.set()
            service.shutdown()
        assert blocker.response(timeout=1.0).ok
        assert all(r.ok for r in responses)
        assert all(
            r.value == responses[0].value for r in responses[:3]
        )
        # One execution answered all three duplicates.
        assert stub.calls == ["blocker", "same", "other"]
        assert service.stats.coalesced == 2
        assert service.stats.completed == 5
        coalesced = [r for r in responses if r.metrics.get("coalesced")]
        assert len(coalesced) == 2
        for r in coalesced:
            assert r.metrics["queue_wait_seconds"] >= 0.0

    def test_each_queued_spec_is_serialised_once(self, monkeypatch):
        # The coalesce key is compared under the service lock on every
        # dequeue; it must be computed once per request, not once per
        # comparison (a full queue used to re-serialise every waiting
        # request on every dequeue).
        import json
        import types

        import repro.server.service as service_mod

        dumped = []

        def counting_dumps(obj, **kwargs):
            dumped.append(obj)
            return json.dumps(obj, **kwargs)

        monkeypatch.setattr(
            service_mod, "json", types.SimpleNamespace(dumps=counting_dumps)
        )
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        service = QueryService(stub, concurrency=1, queue_depth=16)
        labels = ["a", "b", "c", "d", "e", "f"] + ["same"] * 4
        try:
            blocker, pendings = self.queue_behind_blocker(
                stub, service, gate, labels
            )
            assert all(p.response(timeout=10.0).ok for p in pendings)
        finally:
            gate.set()
            service.shutdown()
        assert service.stats.coalesced == 3
        assert stub.calls == ["blocker", "a", "b", "c", "d", "e", "f", "same"]
        # The blocker found an empty queue and never needed a key.
        assert len(dumped) == len(labels)

    def test_coalesce_false_executes_each_request(self):
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        service = QueryService(
            stub, concurrency=1, queue_depth=8, coalesce=False
        )
        try:
            _, pendings = self.queue_behind_blocker(
                stub, service, gate, ["same", "same", "same"]
            )
            assert all(p.response(timeout=10.0).ok for p in pendings)
        finally:
            gate.set()
            service.shutdown()
        assert stub.calls.count("same") == 3
        assert service.stats.coalesced == 0

    def test_cancelled_follower_is_answered_cancelled(self):
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        service = QueryService(stub, concurrency=1, queue_depth=8)
        try:
            blocker = fill_one_worker(service, gate)
            leader = service.submit(QueryRequest(query=spec("same")))
            follower = service.submit(QueryRequest(query=spec("same")))
            follower.cancel()
            gate.set()
            assert leader.response(timeout=10.0).ok
            response = follower.response(timeout=10.0)
            assert response.error_code == ERR_CANCELLED
            assert response.metrics["coalesced"] is True
            assert blocker.response(timeout=1.0).ok
        finally:
            gate.set()
            service.shutdown()
        assert stub.calls.count("same") == 1

    def test_expired_follower_still_gets_the_value(self):
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        service = QueryService(stub, concurrency=1, queue_depth=8)
        try:
            fill_one_worker(service, gate)
            leader = service.submit(QueryRequest(query=spec("same")))
            follower = service.submit(
                QueryRequest(query=spec("same"), deadline=0.01)
            )
            time.sleep(0.05)
            gate.set()
            assert leader.response(timeout=10.0).ok
            response = follower.response(timeout=10.0)
        finally:
            gate.set()
            service.shutdown()
        # The leader's execution produced the value either way: deliver
        # it and report the miss instead of wasting the work.
        assert response.ok
        assert response.metrics["coalesced"] is True
        assert response.metrics["deadline_missed"] is True

    def test_followers_requeued_when_leader_fails(self):
        gate = threading.Event()
        stub = StubEngine(gate=gate, fail=True)
        service = QueryService(stub, concurrency=1, queue_depth=8)
        try:
            _, pendings = self.queue_behind_blocker(
                stub, service, gate, ["same", "same", "same"]
            )
            responses = [p.response(timeout=10.0) for p in pendings]
        finally:
            gate.set()
            service.shutdown()
        # No follower inherits the leader's failure: each got its own
        # execution (which then failed on its own terms).
        assert all(r.error_code == ERR_EXECUTION for r in responses)
        assert stub.calls.count("same") == 3

    def test_query_objects_are_not_coalesced(self):
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        service = QueryService(stub, concurrency=1, queue_depth=8)
        try:
            _, pendings = self.queue_behind_blocker(
                stub, service, gate, [mb.q1(30), mb.q1(30)]
            )
            assert all(p.response(timeout=10.0).ok for p in pendings)
        finally:
            gate.set()
            service.shutdown()
        # Equal-by-construction plan objects still execute separately:
        # only wire-form specs have cheap, reliable equality.
        assert len(stub.calls) == 3
        assert service.stats.coalesced == 0


class TestDrain:
    def test_drain_under_load(self):
        # Satellite: queued requests get a structured shutting_down
        # rejection, in-flight ones complete, and the service (plus the
        # engine) shuts down idempotently afterwards.
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        service = QueryService(
            stub, concurrency=1, queue_depth=8, own_engine=True
        )
        in_flight = fill_one_worker(service, gate)
        queued = [
            service.submit(QueryRequest(query=spec(f"q{i}"))) for i in range(3)
        ]

        drained = threading.Event()

        def drain():
            assert service.drain(timeout=30.0)
            drained.set()

        thread = threading.Thread(target=drain, daemon=True)
        thread.start()

        # Queued requests are rejected immediately, before the
        # in-flight one finishes.
        for pending in queued:
            response = pending.response(timeout=10.0)
            assert response.error_code == ERR_SHUTTING_DOWN
            assert "queued" in response.error.message
        assert not in_flight.done()
        assert not drained.is_set()

        gate.set()  # let the in-flight request complete
        thread.join(timeout=10.0)
        assert drained.is_set()
        assert in_flight.response().ok

        # New submissions are rejected while draining.
        late = service.submit(QueryRequest(query=spec("late")))
        assert late.response().error_code == ERR_SHUTTING_DOWN

        # Shutdown is graceful and idempotent, including the engine's.
        assert service.shutdown(timeout=10.0)
        assert service.shutdown(timeout=10.0)
        assert stub.shutdowns >= 2
        assert service.state == "stopped"
        snap = service.stats.snapshot()
        assert snap["rejected_draining"] == 4  # 3 queued + 1 late
        assert snap["completed"] == 1  # the in-flight blocker

    def test_drain_times_out_when_in_flight_hangs(self):
        gate = threading.Event()
        service = QueryService(StubEngine(gate=gate), concurrency=1)
        try:
            fill_one_worker(service, gate)
            assert service.drain(timeout=0.1) is False
        finally:
            gate.set()
            service.shutdown()

    def test_engine_still_usable_after_service_shutdown(self, micro_db):
        engine = Engine(db=micro_db, workers=2)
        with QueryService(engine, concurrency=2) as service:
            assert service.execute(mb.q1(30)).ok
        # own_engine defaults to False: the engine survives the service
        result = engine.execute(mb.q1(30), "swole", workers=2)
        assert result is not None
        engine.shutdown()
        engine.shutdown()  # idempotent


class TestValidation:
    def test_constructor_rejects_bad_parameters(self):
        stub = StubEngine()
        with pytest.raises(ReproError):
            QueryService(stub, concurrency=0)
        with pytest.raises(ReproError):
            QueryService(stub, queue_depth=0)
        with pytest.raises(ReproError):
            QueryService(stub, default_deadline=0.0)

    def test_unresolved_response_times_out(self):
        gate = threading.Event()
        service = QueryService(StubEngine(gate=gate), concurrency=1)
        try:
            pending = fill_one_worker(service, gate)
            with pytest.raises(ReproError, match=r"did not resolve"):
                pending.response(timeout=0.05)
        finally:
            gate.set()
            service.shutdown()
