"""Wire protocol: request/response round trips and spec parsing."""

import numpy as np
import pytest

from repro.datagen import microbench as mb
from repro.plan.logical import Query
from repro.server import (
    ERR_DEADLINE,
    ERR_QUEUE_FULL,
    ERR_SHUTTING_DOWN,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    parse_query_spec,
)
from repro.server.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    ErrorInfo,
    dump_line,
    encode_value,
    load_line,
)


class TestQuerySpec:
    def test_tpch_names_are_rejected_with_replacement(self):
        for name in ("Q1", "Q6"):
            with pytest.raises(ProtocolError) as excinfo:
                parse_query_spec(name)
            assert f'repro.tpch.logical_plan("{name}")' in str(
                excinfo.value
            )

    def test_micro_spec_builds_the_query(self):
        spec = {"micro": "q1", "args": {"sel": 30, "op": "mul"}}
        built = parse_query_spec(spec)
        assert isinstance(built, Query)
        assert built == mb.q1(30, "mul")

    def test_micro_spec_defaults_args(self):
        assert parse_query_spec({"micro": "q2", "args": {"sel": 40}}) == (
            mb.q2(40)
        )

    def test_logical_query_passes_through(self):
        query = mb.q1(50)
        assert parse_query_spec(query) is query

    def test_unknown_micro_name(self):
        with pytest.raises(ProtocolError, match=r"unknown microbenchmark"):
            parse_query_spec({"micro": "q99"})

    def test_dict_without_micro_key(self):
        with pytest.raises(ProtocolError, match=r"'micro'"):
            parse_query_spec({"sql": "select 1"})

    def test_bad_micro_args(self):
        with pytest.raises(ProtocolError, match=r"bad arguments"):
            parse_query_spec({"micro": "q1", "args": {"nope": 1}})
        with pytest.raises(ProtocolError, match=r"must be an object"):
            parse_query_spec({"micro": "q1", "args": [30]})

    def test_unsupported_spec_type(self):
        with pytest.raises(ProtocolError, match=r"unsupported"):
            parse_query_spec(42)


class TestPlanSpecs:
    """Logical plans over the wire: structural JSON + IR fingerprint."""

    def _plan(self):
        from repro.tpch import logical_plan

        return logical_plan("Q6")

    def test_logical_plan_passes_through(self):
        plan = self._plan()
        assert parse_query_spec(plan) is plan

    def test_plan_envelope_decodes(self):
        from repro.plan.serde import plan_to_wire

        plan = self._plan()
        wire = load_line(dump_line(plan_to_wire(plan)))
        assert parse_query_spec(wire) == plan

    def test_plan_request_round_trips(self):
        from repro.server.protocol import parse_request

        plan = self._plan()
        request = QueryRequest(query=plan, strategy="swole", workers=2)
        back = parse_request(load_line(dump_line(request.to_wire())))
        assert back.strategy == "swole"
        assert back.workers == 2
        assert parse_query_spec(back.query) == plan

    def test_tampered_fingerprint_rejected(self):
        from repro.plan.serde import plan_to_wire

        wire = plan_to_wire(self._plan())
        wire["fingerprint"] = "ir:0000000000000000"
        with pytest.raises(ProtocolError, match=r"does not match"):
            parse_query_spec(wire)

    def test_bad_plan_payload_rejected(self):
        with pytest.raises(ProtocolError, match=r"unknown plan node"):
            parse_query_spec({"plan": {"name": "x", "root": {"t": "cube"}}})


class TestRequestWire:
    def test_round_trip_defaults(self):
        spec = {"micro": "q1", "args": {"sel": 30}}
        request = QueryRequest(query=spec)
        wire = request.to_wire()
        assert wire == {"id": request.id, "query": spec}
        back = QueryRequest.from_wire(wire)
        assert back == request

    def test_round_trip_full(self):
        request = QueryRequest(
            query={"micro": "q1", "args": {"sel": 30}},
            strategy="swole",
            workers=4,
            deadline=1.5,
            id="req-7",
        )
        back = QueryRequest.from_wire(request.to_wire())
        assert back == request

    def test_auto_generated_ids_are_unique(self):
        spec = {"micro": "q2", "args": {"sel": 30}}
        assert QueryRequest(query=spec).id != QueryRequest(query=spec).id

    def test_logical_query_does_not_serialise(self):
        with pytest.raises(ProtocolError, match=r"in-process only"):
            QueryRequest(query=mb.q1(30)).to_wire()

    def test_name_string_does_not_serialise(self):
        with pytest.raises(ProtocolError, match=r"logical_plan\(name\)"):
            QueryRequest(query="Q1").to_wire()

    @pytest.mark.parametrize(
        "wire",
        [
            "not a dict",
            {},
            {"query": "Q1", "workers": 0},
            {"query": "Q1", "workers": "four"},
            {"query": "Q1", "deadline": 0},
            {"query": "Q1", "deadline": -1.0},
            {"query": "Q1", "strategy": 3},
        ],
    )
    def test_from_wire_rejects_bad_requests(self, wire):
        with pytest.raises(ProtocolError):
            QueryRequest.from_wire(wire)


class TestResponseWire:
    def test_ok_round_trip(self):
        response = QueryResponse(
            id="r1",
            status=STATUS_OK,
            value={"sum": 12.5},
            metrics={"queue_wait_seconds": 0.01},
        )
        back = QueryResponse.from_wire(load_line(dump_line(response.to_wire())))
        assert back.ok
        assert back.value == {"sum": 12.5}
        assert back.metrics["queue_wait_seconds"] == 0.01
        assert back.error is None

    def test_error_round_trip_with_retry_after(self):
        response = QueryResponse(
            id="r2",
            status=STATUS_ERROR,
            error=ErrorInfo(
                code=ERR_QUEUE_FULL, message="full", retry_after=0.25
            ),
        )
        back = QueryResponse.from_wire(load_line(dump_line(response.to_wire())))
        assert not back.ok
        assert back.error_code == ERR_QUEUE_FULL
        assert back.error.retry_after == 0.25
        assert back.shed

    def test_classification_properties(self):
        def err(code):
            return QueryResponse(
                id="x",
                status=STATUS_ERROR,
                error=ErrorInfo(code=code, message=""),
            )

        assert err(ERR_QUEUE_FULL).shed
        assert err(ERR_SHUTTING_DOWN).shed
        assert err(ERR_DEADLINE).timed_out
        assert not err(ERR_DEADLINE).shed

    def test_load_line_rejects_bad_json(self):
        with pytest.raises(ProtocolError, match=r"malformed"):
            load_line(b"{not json\n")


class TestEncodeValue:
    def test_numpy_scalars_and_arrays(self):
        assert encode_value(np.int64(7)) == 7
        assert encode_value(np.float32(1.5)) == 1.5
        assert encode_value(np.array([1, 2])) == [1, 2]

    def test_nested_containers(self):
        value = {"sums": (np.int32(3), [np.float64(0.5)])}
        assert encode_value(value) == {"sums": [3, [0.5]]}

    def test_encoded_values_are_json_safe(self):
        import json

        value = {"a": np.arange(3), "b": np.float64(2.0)}
        json.dumps(encode_value(value))  # must not raise
