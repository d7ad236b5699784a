"""TCP transport: round trips, stats scrapes, malformed input,
graceful stop."""

import json
import socket
import time

import pytest

from repro.datagen import microbench as mb
from repro.engine import Engine
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.server import QueryService, ServiceClient, TcpQueryServer
from repro.server.protocol import encode_value
from repro.server.tcp import MAX_FRAME_BYTES


@pytest.fixture()
def served_engine(micro_db):
    engine = Engine(db=micro_db, workers=2)
    service = QueryService(engine, concurrency=2, queue_depth=8)
    server = TcpQueryServer(service, port=0).start()
    yield engine, server
    server.stop(timeout=10.0)
    engine.shutdown()


class TestRoundTrip:
    def test_wire_answer_matches_library_answer(self, served_engine):
        engine, server = served_engine
        direct = engine.execute(mb.q1(30, "mul"), "swole", workers=1)
        with ServiceClient(server.host, server.port) as client:
            response = client.request(
                {"micro": "q1", "args": {"sel": 30, "op": "mul"}},
                strategy="swole",
            )
        assert response.ok
        assert response.value == encode_value(direct.value)
        assert response.metrics["service_seconds"] > 0.0

    def test_requests_on_one_connection_answer_in_order(self, served_engine):
        _, server = served_engine
        with ServiceClient(server.host, server.port) as client:
            ids = []
            for sel in (10, 30, 50):
                response = client.request(
                    {"micro": "q2", "args": {"sel": sel}},
                    strategy="swole",
                    id=f"sel-{sel}",
                )
                assert response.ok
                ids.append(response.id)
            assert ids == ["sel-10", "sel-30", "sel-50"]

    def test_concurrent_connections(self, served_engine):
        _, server = served_engine
        clients = [
            ServiceClient(server.host, server.port) for _ in range(4)
        ]
        try:
            responses = [
                client.request(
                    {"micro": "q1", "args": {"sel": 30}}, strategy="swole"
                )
                for client in clients
            ]
            assert all(r.ok for r in responses)
            assert all(r.value == responses[0].value for r in responses)
        finally:
            for client in clients:
                client.close()


class TestStats:
    @pytest.fixture()
    def observed_server(self, micro_db):
        registry = MetricsRegistry()
        engine = Engine(db=micro_db, workers=2, registry=registry)
        service = QueryService(
            engine, concurrency=2, queue_depth=8, registry=registry
        )
        server = TcpQueryServer(service, port=0).start()
        yield server
        server.stop(timeout=10.0)
        engine.shutdown()

    def test_stats_round_trip(self, observed_server):
        server = observed_server
        with ServiceClient(server.host, server.port) as client:
            assert client.request(
                {"micro": "q1", "args": {"sel": 30}}, strategy="swole"
            ).ok
            snapshot = client.stats()
        assert isinstance(snapshot, dict)
        sources = snapshot["sources"]
        # The engine and service wired their stats islands in.
        assert "hit_rate" in sources["plan_cache"]
        assert "utilization" in sources["pool"]
        assert "queue_depth" in sources["service"]
        assert sources["service"]["completed"] >= 1
        # The query left per-strategy counters and span timings behind,
        # labelled with the backend it ran on.
        counters = snapshot["counters"]
        assert (
            counters["queries_total{backend=vectorized,strategy=swole}"]
            >= 1
        )
        hist_keys = list(snapshot["histograms"])
        assert any("stage=serve" in k for k in hist_keys)
        assert any("stage=compile" in k for k in hist_keys)

    def test_stats_raw_wire_op(self, observed_server):
        server = observed_server
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b'{"op": "stats", "id": "scrape-1"}\n')
            reply = json.loads(conn.makefile("rb").readline())
        assert reply["id"] == "scrape-1"
        assert reply["status"] == "ok"
        assert "counters" in reply["value"]
        assert reply["value"]["counters"]["stats_requests_total"] == 1

    def test_stats_counters_monotonic(self, observed_server):
        server = observed_server
        with ServiceClient(server.host, server.port) as client:
            first = client.stats()
            assert client.request(
                {"micro": "q2", "args": {"sel": 50}}, strategy="swole"
            ).ok
            second = client.stats()
        for name, value in first["counters"].items():
            assert second["counters"][name] >= value, name
        assert (
            second["counters"]["stats_requests_total"]
            > first["counters"]["stats_requests_total"]
        )

    def test_unknown_op_gets_bad_request(self, observed_server):
        server = observed_server
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b'{"op": "selfdestruct"}\n')
            reply = conn.makefile("rb").readline()
        assert b'"bad_request"' in reply


class TestConnectionTelemetry:
    def test_client_reset_is_counted_not_swallowed(self, micro_db):
        # Regression: a client that dies with a TCP RST mid-connection
        # used to vanish into a bare ``except OSError: pass`` — no
        # counter, no error-log line. The reset must now surface as
        # ``tcp_stop_errors_total{site=conn_read}`` plus a ``tcp.conn``
        # error-log entry.
        import struct
        import time

        registry = MetricsRegistry()
        engine = Engine(db=micro_db, workers=1, registry=registry)
        service = QueryService(
            engine, concurrency=1, registry=registry, own_engine=True
        )
        server = TcpQueryServer(service, port=0).start()
        try:
            conn = socket.create_connection(server.address, timeout=5.0)
            reader = conn.makefile("rb")
            conn.sendall(
                b'{"id": "warm", "query": '
                b'{"micro": "q1", "args": {"sel": 30}}, '
                b'"strategy": "swole"}\n'
            )
            assert b'"status":"ok"' in reader.readline()
            # SO_LINGER(on, 0): closing sends RST instead of FIN, so
            # the server's blocking read fails with ECONNRESET. The
            # makefile reader holds a reference to the fd — it must be
            # closed too or the socket never actually closes.
            conn.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            reader.close()
            conn.close()

            counter = registry.counter(
                "tcp_stop_errors_total", site="conn_read"
            )
            deadline = time.monotonic() + 5.0
            while counter.value == 0:
                assert time.monotonic() < deadline, (
                    "connection reset never reached the counter"
                )
                time.sleep(0.01)
            entries = registry.error_log.snapshot()["entries"]
            assert any(
                e["source"] == "tcp.conn" and "conn_read" in e["message"]
                for e in entries
            )
        finally:
            server.stop(timeout=10.0)


class TestFrameBound:
    """A frame past the byte cap, or one the client abandons half
    written, costs the server one connection: the event is counted and
    logged, and a fresh connection is served as before."""

    @pytest.fixture()
    def observed(self, micro_db):
        registry = MetricsRegistry()
        engine = Engine(db=micro_db, workers=1, registry=registry)
        service = QueryService(
            engine, concurrency=1, registry=registry, own_engine=True
        )
        server = TcpQueryServer(service, port=0).start()
        yield server, registry
        server.stop(timeout=10.0)

    @staticmethod
    def assert_recorded(registry, site):
        counter = registry.counter("tcp_stop_errors_total", site=site)
        deadline = time.monotonic() + 5.0
        while counter.value == 0:
            assert time.monotonic() < deadline, f"{site} never counted"
            time.sleep(0.01)
        assert counter.value == 1
        entries = registry.error_log.snapshot()["entries"]
        assert any(
            e["source"] == "tcp.conn" and site in e["message"]
            for e in entries
        )

    @staticmethod
    def assert_still_serving(server):
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b'{"op": "stats", "id": "after"}\n')
            reply = json.loads(conn.makefile("rb").readline())
        assert (reply["id"], reply["status"]) == ("after", "ok")

    def test_oversized_frame_is_refused_and_closed(self, observed):
        server, registry = observed
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b"x" * (MAX_FRAME_BYTES + 10))
            reader = conn.makefile("rb")
            reply = json.loads(reader.readline())
            assert reader.readline() == b""  # the server closed it
            reader.close()
        assert reply["status"] == "error"
        assert reply["error"]["code"] == "bad_request"
        assert str(MAX_FRAME_BYTES) in reply["error"]["message"]
        self.assert_recorded(registry, "frame_oversized")
        self.assert_still_serving(server)

    def test_half_written_frame_then_close(self, observed):
        server, registry = observed
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b'{"op": "stats", "id": "hal')
        self.assert_recorded(registry, "frame_truncated")
        self.assert_still_serving(server)


class TestBadInput:
    def test_malformed_json_line_gets_bad_request(self, served_engine):
        _, server = served_engine
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b"{this is not json\n")
            reply = conn.makefile("rb").readline()
        assert b'"bad_request"' in reply

    def test_request_missing_query_gets_bad_request(self, served_engine):
        _, server = served_engine
        with socket.create_connection(server.address, timeout=5.0) as conn:
            conn.sendall(b'{"id": "x"}\n')
            reply = conn.makefile("rb").readline()
        assert b'"bad_request"' in reply

    def test_connection_survives_a_bad_line(self, served_engine):
        _, server = served_engine
        with socket.create_connection(server.address, timeout=5.0) as conn:
            reader = conn.makefile("rb")
            conn.sendall(b"garbage\n")
            assert b'"bad_request"' in reader.readline()
            conn.sendall(
                b'{"id": "ok1", "query": '
                b'{"micro": "q1", "args": {"sel": 30}}, '
                b'"strategy": "swole"}\n'
            )
            assert b'"status":"ok"' in reader.readline()

    def test_name_string_spec_is_an_error_with_the_replacement(
        self, served_engine
    ):
        # The pre-2.0 ``"Q6"`` spelling: a structured error carrying
        # the replacement, and the connection stays usable.
        _, server = served_engine
        with socket.create_connection(server.address, timeout=5.0) as conn:
            reader = conn.makefile("rb")
            conn.sendall(b'{"id": "old", "query": "Q6"}\n')
            reply = json.loads(reader.readline())
            assert reply["id"] == "old" and reply["status"] == "error"
            assert reply["error"]["code"] == "bad_request"
            hint = 'repro.tpch.logical_plan("Q6")'
            assert hint in reply["error"]["message"]
            conn.sendall(
                b'{"id": "new", "query": '
                b'{"micro": "q1", "args": {"sel": 30}}}\n'
            )
            assert json.loads(reader.readline())["status"] == "ok"

    def test_client_rejects_a_name_string_before_sending(
        self, served_engine
    ):
        _, server = served_engine
        with ServiceClient(*server.address) as client:
            with pytest.raises(ReproError, match="logical_plan"):
                client.request("Q6")
            assert client.request({"micro": "q1", "args": {"sel": 30}}).ok


class TestLifecycle:
    def test_stop_is_graceful_and_idempotent(self, micro_db):
        engine = Engine(db=micro_db, workers=1)
        service = QueryService(engine, concurrency=1, own_engine=True)
        server = TcpQueryServer(service, port=0).start()
        with ServiceClient(server.host, server.port) as client:
            assert client.request(
                {"micro": "q1", "args": {"sel": 30}}, strategy="swole"
            ).ok
        report = server.stop(timeout=10.0)
        assert report.drained
        assert report.errors == []
        assert report.unjoined_threads == []
        assert report.clean
        server.stop(timeout=10.0)  # second stop is a no-op
        assert service.state == "stopped"
        with pytest.raises((ReproError, OSError)):
            ServiceClient(server.host, server.port).request(
                {"micro": "q1", "args": {"sel": 30}}
            )

    def test_port_zero_picks_a_free_port(self, micro_db):
        engine = Engine(db=micro_db, workers=1)
        service = QueryService(engine, concurrency=1, own_engine=True)
        server = TcpQueryServer(service, port=0)
        try:
            assert server.port > 0
        finally:
            server.stop(timeout=10.0)

    def test_bind_conflict_raises_repro_error(self, micro_db):
        engine = Engine(db=micro_db, workers=1)
        service = QueryService(engine, concurrency=1)
        server = TcpQueryServer(service, port=0)
        try:
            with pytest.raises(ReproError, match=r"cannot bind"):
                TcpQueryServer(service, port=server.port)
        finally:
            server.stop(timeout=10.0)
            engine.shutdown()
