"""Multi-process shard executor.

The contract under test: worker processes map the same on-disk columns
by dataset fingerprint, morsels ship over a pickle-free line-JSON
protocol, and the gathered answer is byte-identical to the serial one
(``repr`` equality — every float bit). Plus the operational envelope:
a SIGKILLed worker's morsel retries on a fresh process, engines refuse
databases without cache provenance, and small scans fall back to
in-process execution instead of paying the pipe.
"""

import json
import os
import signal
import sys
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.datagen import microbench as mb
from repro.datagen import tpch as tpchgen
from repro.datagen.cache import load_dataset
from repro.engine import Engine, ExecutionKnobs
from repro.engine.costing import CostReport, StatsOverride
from repro.engine.events import Branch, CondRead, RandomAccess, StatSample
from repro.engine.machine import PAPER_MACHINE
from repro.engine.plan_cache import plan_key
from repro.engine.shard import (
    MAX_TASK_RETRIES,
    ShardWorkerHandle,
    decode_partial,
    encode_partial,
    report_from_wire,
    report_to_wire,
)
from repro.errors import ExecutionError, PlanError, ReproError
from repro.plan.serde import plan_to_wire
from repro.server import QueryRequest, QueryService
from repro.server.protocol import ProtocolError
from repro.tpch import PIPELINE_QUERIES, STRATEGIES, logical_plan

SHARDS = 2
#: A fan-out floor of one row keeps the tiny test datasets parallel;
#: the floor itself is tested separately (TestFallback).
NO_FLOOR = ExecutionKnobs(min_parallel_rows=1)


@pytest.fixture(scope="module")
def cached_tpch_db():
    """Tiny TPC-H loaded *through the cache* so it carries the
    fingerprint/cache-dir provenance shard workers need."""
    return load_dataset("tpch", tpchgen.TpchConfig(scale_factor=0.002))


@pytest.fixture(scope="module")
def serial_engine(cached_tpch_db):
    engine = Engine(
        cached_tpch_db,
        machine=PAPER_MACHINE,
        workers=1,
        knobs=NO_FLOOR,
    )
    yield engine
    engine.shutdown()


@pytest.fixture(scope="module")
def sharded_engine(cached_tpch_db):
    engine = Engine(
        cached_tpch_db,
        machine=PAPER_MACHINE,
        workers=SHARDS,
        shards=SHARDS,
        knobs=NO_FLOOR,
    )
    engine.start_shards()
    yield engine
    engine.shutdown()


class TestWireCodec:
    """The partial-state codec must be bit-exact through real JSON."""

    def roundtrip(self, value):
        return decode_partial(json.loads(json.dumps(encode_partial(value))))

    def test_arrays_roundtrip_bit_exact(self):
        value = {
            "sums": np.array([0.1 + 0.2, -0.0, 1e-300, np.inf]),
            "counts": np.arange(4, dtype=np.int64),
            "mask": np.array([True, False, True]),
            "keys": np.array(["AIR", "RAIL", "TRUCK"]),
            "grid": np.arange(6, dtype=np.float32).reshape(2, 3),
        }
        back = self.roundtrip(value)
        for name, item in value.items():
            assert back[name].dtype == item.dtype
            assert back[name].shape == item.shape
            assert back[name].tobytes() == item.tobytes()

    def test_scalars_roundtrip_bit_exact(self):
        value = {
            "np_float": np.float64(0.1),
            "np_int": np.int32(-7),
            "big_int": 2**80 + 1,
            "flt": 0.1 + 0.2,  # != 0.3; a decimal round-trip would drift
            "neg_zero": -0.0,
            "flag": True,
            "text": "lineitem",
            "nothing": None,
        }
        back = self.roundtrip(value)
        assert isinstance(back["np_float"], np.float64)
        assert back["np_float"].tobytes() == value["np_float"].tobytes()
        assert back["np_int"] == np.int32(-7)
        assert back["big_int"] == 2**80 + 1
        assert back["flt"].hex() == (0.1 + 0.2).hex()
        assert str(back["neg_zero"]) == "-0.0"
        assert back["flag"] is True
        assert back["text"] == "lineitem"
        assert back["nothing"] is None

    def test_nan_payload_survives(self):
        value = {"x": np.array([np.nan, 1.0])}
        back = self.roundtrip(value)
        assert back["x"].tobytes() == value["x"].tobytes()

    def test_cost_report_roundtrip_rebuilds_totals(self):
        # The reply ships the morsel's priced event stream; replaying
        # it through CostReport.add must rebuild every aggregate.
        report = CostReport(machine=PAPER_MACHINE)
        report.add(
            "swole:Q:morsel",
            CondRead(n_range=10, n_selected=3, width=4, array="a"),
            0.1 + 0.2,
        )
        report.add(
            "swole:Q:morsel",
            RandomAccess(n=7, struct_bytes=4096, op_cycles=2.75, prefetched=True),
            1e-300,
        )
        report.add("swole:Q:probe", Branch(n=5, taken_fraction=0.1, site="s"), 3.0)
        report.add(
            "swole:Q:probe",
            StatSample(kind="join_match", n=5, value=2.0, site="j"),
            0.0,
        )
        back = report_from_wire(
            PAPER_MACHINE, json.loads(json.dumps(report_to_wire(report)))
        )
        assert back.events == report.events
        assert back.total_cycles.hex() == report.total_cycles.hex()
        assert back.by_kernel == report.by_kernel
        assert back.by_kind == report.by_kind

    def test_override_wire_roundtrip(self):
        # The override rides inside the compile spec's wire form, unset
        # fields omitted (the round trip itself: test_plan_cache).
        spec = plan_key(logical_plan("Q6"), "swole")
        assert spec.to_wire()["override"] is None
        override = StatsOverride(selectivity=0.25, group_cardinality=7)
        wire = spec._replace(override=override).to_wire()
        assert wire["override"] == {"selectivity": 0.25, "group_cardinality": 7}


class TestByteIdentity:
    """Scatter/gather must be invisible in the answer."""

    @pytest.mark.parametrize("name", ["Q1", "Q6"])
    @pytest.mark.parametrize("strategy", ["swole", "datacentric"])
    def test_tpch_matches_serial_vectorized(
        self, serial_engine, sharded_engine, name, strategy
    ):
        plan = logical_plan(name)
        serial = serial_engine.execute(plan, strategy)
        sharded = sharded_engine.execute(plan, strategy)
        assert sharded.report.metrics.sharded
        assert sharded.report.metrics.workers == SHARDS
        assert repr(sharded.value) == repr(serial.value)

    @pytest.mark.parametrize("name", ["Q3", "Q14"])
    def test_join_queries_match_serial(
        self, serial_engine, sharded_engine, name
    ):
        # Join-heavy cells may legitimately decline to shard (no
        # parallel plan for the strategy) — the answer must match
        # either way.
        plan = logical_plan(name)
        serial = serial_engine.execute(plan, "swole")
        sharded = sharded_engine.execute(plan, "swole")
        assert repr(sharded.value) == repr(serial.value)

    def test_instrumented_backend_matches_serial(
        self, serial_engine, sharded_engine
    ):
        plan = logical_plan("Q1")
        serial = serial_engine.execute(plan, "swole", backend="instrumented")
        sharded = sharded_engine.execute(
            plan, "swole", backend="instrumented"
        )
        assert sharded.report.metrics.sharded
        assert repr(sharded.value) == repr(serial.value)
        assert sharded.report.total_cycles > 0

    @pytest.mark.parametrize("name", ["Q1", "Q6"])
    def test_encoded_scans_match_decoded_across_shards(
        self, cached_tpch_db, sharded_engine, name
    ):
        # The sharded engine serves encoded scans by default (the
        # encoding mode rides the task wire form, and workers mmap the
        # cache's persisted code streams); an encoding-off sharded
        # engine must produce the identical bytes.
        plan = logical_plan(name)
        encoded = sharded_engine.execute(plan, "swole")
        with Engine(
            cached_tpch_db,
            machine=PAPER_MACHINE,
            workers=SHARDS,
            shards=SHARDS,
            knobs=NO_FLOOR,
            encoding="off",
        ) as decoded_engine:
            decoded = decoded_engine.execute(plan, "swole")
        assert encoded.report.metrics.sharded
        assert decoded.report.metrics.sharded
        assert repr(encoded.value) == repr(decoded.value)

    def test_cached_database_carries_seeded_code_streams(
        self, cached_tpch_db
    ):
        # The dataset cache persists narrow code files; a cold load
        # (what every shard worker does) serves them as memory-mapped
        # arrays, value-identical to the wide columns.
        from pathlib import Path

        from repro.datagen.cache import DatasetCache

        cold = DatasetCache(
            cache_dir=Path(cached_tpch_db.dataset_cache_dir)
        ).load_fingerprint(cached_tpch_db.dataset_fingerprint)
        assert cold is not None
        col = cold.table("lineitem").column("l_shipdate")
        assert col.encoding.compressed
        codes = col.encoded_values()
        assert isinstance(codes, np.memmap)
        assert codes.dtype == np.dtype(col.encoding.dtype)
        assert np.array_equal(codes.astype(np.int64), col.values)

    def test_microbench_plan_matches_serial(self):
        # The microbench factories build operator trees like TPC-H's, so
        # parent and workers compile the identical tree from the wire.
        db = load_dataset(
            "microbench",
            mb.MicrobenchConfig(num_rows=20_000, s_rows=200, c_cardinality=16),
        )
        with Engine(db, workers=1, knobs=NO_FLOOR) as serial:
            expected = serial.execute(mb.q1(30), "swole").value
        with Engine(
            db, workers=SHARDS, shards=SHARDS, knobs=NO_FLOOR
        ) as sharded:
            result = sharded.execute(mb.q1(30), "swole")
            assert result.report.metrics.sharded
            assert repr(result.value) == repr(expected)


class TestShardedSweep:
    """Every query x strategy cell, sharded, on both backends: the
    answer is ``repr``-identical to serial (no compiler needed)."""

    @pytest.fixture(scope="class")
    def swept_engine(self, cached_tpch_db):
        # Workers of its own: the sweep fills their program caches with
        # every cell, which the shared engine's tests do not expect.
        with Engine(
            cached_tpch_db,
            machine=PAPER_MACHINE,
            shards=SHARDS,
            knobs=NO_FLOOR,
        ) as engine:
            yield engine

    @pytest.mark.parametrize("name", PIPELINE_QUERIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cell_matches_serial(
        self, serial_engine, swept_engine, name, strategy
    ):
        plan = logical_plan(name)
        for backend in ("vectorized", "instrumented"):
            serial = serial_engine.execute(plan, strategy, backend=backend)
            sharded = swept_engine.execute(plan, strategy, backend=backend)
            cell = (name, strategy, backend)
            assert repr(sharded.value) == repr(serial.value), cell
            # Compiled scans long enough to fan out cross the pipe.
            if name in ("Q1", "Q6") and strategy != "interpreter":
                assert sharded.metrics.sharded, cell


class TestThreadShardParity:
    """Threads and shard processes are two runners under one executor:
    a sharded run must be *measured* exactly as a thread run is — same
    event stream, so the same Observation reaches the adaptive loop."""

    @pytest.fixture(scope="class")
    def observed(self, cached_tpch_db):
        """An instrumented, adaptive engine whose ``observe`` only
        records, so the loop never recompiles between the two runs."""
        engine = Engine(
            cached_tpch_db,
            machine=PAPER_MACHINE,
            workers=SHARDS,
            shards=SHARDS,
            backend="instrumented",
            adaptive=True,
            knobs=NO_FLOOR,
        )
        seen = []
        engine.adaptive.observe = (
            lambda fp, strategy, backend, observation, **_: seen.append(
                observation
            )
        )
        yield engine, seen
        engine.shutdown()

    @pytest.mark.parametrize("name", ["Q1", "Q5", "Q19"])
    @pytest.mark.parametrize("strategy", ["hybrid", "swole"])
    def test_sharded_run_is_measured_like_a_thread_run(
        self, observed, name, strategy
    ):
        engine, seen = observed
        plan = logical_plan(name)
        del seen[:]
        threads = engine.execute(plan, strategy, workers=SHARDS, shards=0)
        shards = engine.execute(plan, strategy, shards=SHARDS)
        t, s = threads.report.metrics, shards.report.metrics
        assert t.parallel and not t.sharded
        assert s.parallel and s.sharded
        on_threads, on_shards = seen
        for stat in (
            "selectivity", "match_fraction", "group_cardinality",
            "random_accesses", "ht_bytes", "events",
        ):
            assert getattr(on_shards, stat) == getattr(on_threads, stat), stat
        assert on_shards.events > 0
        assert s.event_counts == t.event_counts
        assert repr(shards.value) == repr(threads.value)
        if (name, strategy) == ("Q5", "hybrid"):
            # Its morsels probe one shared hash table, and a lookup is
            # priced by that table's *lifetime* mean probe length
            # (kernels._ht_op_cycles): cycles depend on which probes
            # came first, between two thread runs as much as between
            # tiers, so only the event stream is comparable here.
            return
        assert s.total_cycles == t.total_cycles
        assert s.critical_path_cycles == t.critical_path_cycles
        assert shards.report.by_kernel == threads.report.by_kernel

    def test_shard_count_does_not_split_the_plan_cache(self, cached_tpch_db):
        # One program whatever runs its morsels: in-process then
        # sharded is one miss, one hit, one cache entry.
        with Engine(cached_tpch_db, knobs=NO_FLOOR) as engine:
            plan = logical_plan("Q6")
            first = engine.execute(plan, "swole", shards=0)
            second = engine.execute(plan, "swole", shards=SHARDS)
            assert first.report.metrics.plan_cache == "miss"
            assert second.report.metrics.plan_cache == "hit"
            assert second.report.metrics.sharded
            engine.execute(plan, "swole", shards=0)
            engine.execute(plan, "swole", shards=SHARDS)
            assert (engine.cache_stats.misses, engine.cache_stats.hits) == (
                1, 3,
            )
            assert len(engine.plan_cache) == 1


class TestWorkerProgramCache:
    """The task's compile spec is the worker's program-cache key."""

    @pytest.fixture()
    def worker(self, cached_tpch_db, monkeypatch):
        """A shard worker driven in-process, counting its compiles."""
        from repro.engine import shard_worker

        compiles = []
        real = shard_worker.compile_pipeline

        def counting(plan, db, spec):
            compiles.append(spec)
            return real(plan, db, spec)

        monkeypatch.setattr(shard_worker, "compile_pipeline", counting)
        worker = shard_worker._Worker()
        ready = worker.init(
            {
                "shard_id": 0,
                "machine": asdict(PAPER_MACHINE),
                "cache_dir": cached_tpch_db.dataset_cache_dir,
                "fingerprint": cached_tpch_db.dataset_fingerprint,
            }
        )
        assert ready["op"] == "ready"
        return worker, compiles

    @staticmethod
    def task(spec, lo=0, hi=64):
        return {
            "op": "task",
            "plan": plan_to_wire(logical_plan("Q6")),
            "spec": json.loads(json.dumps(spec.to_wire())),
            "lo": lo,
            "hi": hi,
        }

    def test_same_spec_compiles_once_and_override_compiles_again(
        self, worker
    ):
        worker, compiles = worker
        spec = plan_key(logical_plan("Q6"), "swole")
        worker.task(self.task(spec))
        worker.task(self.task(spec, lo=64, hi=128))
        assert compiles == [spec]
        override = StatsOverride(selectivity=0.9)
        overridden = spec._replace(override=override)
        worker.task(self.task(overridden))
        worker.task(self.task(overridden))
        assert compiles == [spec, overridden]
        # The worker prices with the override the parent shipped.
        program, _ = worker.programs[overridden]
        assert program.notes["spec"].override == override
        assert worker.programs[spec][0].notes["spec"].override is None

    def test_parent_ships_the_override_it_compiled_with(
        self, cached_tpch_db
    ):
        plan = logical_plan("Q6")
        override = StatsOverride(selectivity=0.9)
        with Engine(
            cached_tpch_db, adaptive=True, shards=SHARDS,
            knobs=NO_FLOOR,
        ) as engine:
            expected = repr(engine.execute(plan, "swole", shards=0).value)
            fingerprint = plan_key(plan, "swole").fingerprint
            engine.adaptive.reopt.apply_override(fingerprint, override)
            engine.plan_cache.invalidate(fingerprint)
            compiled = engine.compile(plan, "swole")
            assert compiled.notes["spec"].override is override
            shipped = compiled.notes["spec"].to_wire()["override"]
            assert shipped == {"selectivity": 0.9}
            result = engine.execute(plan, "swole")
            assert result.report.metrics.sharded
            assert repr(result.value) == expected

    def test_malformed_spec_is_a_task_error_like_a_malformed_plan(
        self, sharded_engine
    ):
        handle = sharded_engine.start_shards().worker(0)
        good = self.task(plan_key(logical_plan("Q6"), "swole"))
        bad_spec = handle.request({**good, "spec": {"strategy": "swole"}})
        bad_plan = handle.request({**good, "plan": {"v": 1}})
        for reply in (bad_spec, bad_plan):
            assert reply["op"] == "error"
            assert reply["error"].startswith("PlanError: ")
        assert "malformed compile spec" in bad_spec["error"]
        # Deterministic task errors leave the worker serving.
        assert handle.request(good)["op"] == "result"

    def test_cached_spec_never_serves_a_mismatched_envelope(self, worker):
        # The envelope is checked against the spec before the program
        # cache is: once Q6 is warm under its spec, neither a malformed
        # envelope nor another plan's envelope may reuse that program.
        worker, compiles = worker
        spec = plan_key(logical_plan("Q6"), "swole")
        good = self.task(spec)
        assert worker.task(good)["op"] == "result"
        malformed = {**good, "plan": {"v": 1}}
        other = {**good, "plan": plan_to_wire(logical_plan("Q1"))}
        for msg in (malformed, other):
            with pytest.raises(PlanError, match=spec.fingerprint):
                worker.task(msg)
        assert compiles == [spec]
        assert worker.task(good)["op"] == "result"

    def test_mismatched_envelope_is_a_task_error(self, sharded_engine):
        handle = sharded_engine.start_shards().worker(0)
        good = self.task(plan_key(logical_plan("Q6"), "swole"))
        assert handle.request(good)["op"] == "result"
        for plan in ({"v": 1}, plan_to_wire(logical_plan("Q1"))):
            reply = handle.request({**good, "plan": plan})
            assert reply["op"] == "error"
            assert reply["error"].startswith("PlanError: ")
        assert handle.request(good)["op"] == "result"


class TestFallback:
    def test_small_scan_falls_back_to_in_process(self, cached_tpch_db):
        # Default fan-out floor: a 0.002-sf lineitem scan is far below
        # it, so the shard path declines and the morsel executor runs
        # in-process — same answer, no pipe.
        with Engine(cached_tpch_db, shards=SHARDS) as engine:
            result = engine.execute(logical_plan("Q6"), "swole")
            assert result is not None
            assert not result.report.metrics.sharded

    def test_request_shards_zero_forces_in_process(self, sharded_engine):
        result = sharded_engine.execute(logical_plan("Q6"), "swole", shards=0)
        assert not result.report.metrics.sharded

    def test_per_request_shards_on_plain_engine(self, cached_tpch_db):
        with Engine(cached_tpch_db, knobs=NO_FLOOR) as engine:
            result = engine.execute(
                logical_plan("Q6"), "swole", shards=SHARDS
            )
            assert result.report.metrics.sharded


class TestProvenance:
    def test_uncached_database_is_refused(self):
        db = mb.generate(
            mb.MicrobenchConfig(num_rows=1_000, s_rows=50, c_cardinality=8)
        )
        with pytest.raises(ReproError, match="dataset cache"):
            Engine(db, shards=SHARDS)

    def test_zero_shards_engine_is_refused(self, cached_tpch_db):
        with pytest.raises(ReproError, match="at least one shard"):
            Engine(cached_tpch_db, shards=0)


class TestCrashRecovery:
    def test_killed_worker_is_replaced_and_answer_unchanged(
        self, sharded_engine
    ):
        plan = logical_plan("Q6")
        expected = repr(sharded_engine.execute(plan, "swole").value)
        group = sharded_engine.start_shards()  # idempotent accessor
        assert group.kill_worker(0)
        result = sharded_engine.execute(plan, "swole")
        assert repr(result.value) == expected
        snapshot = group.snapshot()
        assert snapshot["crashes"] >= 1
        assert snapshot["restarts"] >= 1
        assert snapshot["alive"] == SHARDS

    @staticmethod
    def intercept_sends(monkeypatch, on_task):
        """Route every task message through ``on_task(handle, message,
        send)``, where ``send`` is the real ``ShardWorkerHandle.send``."""
        real = ShardWorkerHandle.send

        def send(handle, message):
            if message.get("op") == "task":
                return on_task(handle, message, real)
            return real(handle, message)

        monkeypatch.setattr(ShardWorkerHandle, "send", send)

    def test_worker_killed_with_its_task_in_flight_is_retried(
        self, sharded_engine, monkeypatch
    ):
        plan = logical_plan("Q6")
        expected = repr(sharded_engine.execute(plan, "swole").value)
        group = sharded_engine.start_shards()
        before = group.snapshot()
        armed = [True]

        def die_holding_the_task(handle, message, send):
            try:
                armed.pop()
            except IndexError:
                return send(handle, message)
            # Stopped first, so the worker cannot answer before it
            # dies: the task is sent, unanswered, and lost with it.
            os.kill(handle.pid, signal.SIGSTOP)
            send(handle, message)
            handle.proc.kill()

        self.intercept_sends(monkeypatch, die_holding_the_task)
        result = sharded_engine.execute(plan, "swole")
        assert not armed
        assert repr(result.value) == expected
        after = group.snapshot()
        assert after["retries"] >= before["retries"] + 1
        assert after["crashes"] >= before["crashes"] + 1
        assert after["alive"] == SHARDS

    def test_worker_dying_on_every_attempt_fails_the_morsel(
        self, sharded_engine, monkeypatch
    ):
        plan = logical_plan("Q6")
        expected = repr(sharded_engine.execute(plan, "swole").value)
        group = sharded_engine.start_shards()
        attempts = []

        def die_on_the_first_morsel(handle, message, send):
            if message["lo"] == 0:
                attempts.append(handle.pid)
                handle.proc.kill()
                handle.proc.wait()
            send(handle, message)

        self.intercept_sends(monkeypatch, die_on_the_first_morsel)
        started = time.monotonic()
        with pytest.raises(
            ExecutionError,
            match=rf"morsel 0 \(rows \[0, \d+\)\) of swole:.* failed: .*"
            rf"{MAX_TASK_RETRIES + 1} times on crashed workers",
        ):
            sharded_engine.execute(plan, "swole")
        assert time.monotonic() - started < 60.0
        # every try ran, each retry on a freshly spawned process
        assert len(set(attempts)) == MAX_TASK_RETRIES + 1
        monkeypatch.undo()
        assert repr(sharded_engine.execute(plan, "swole").value) == expected
        assert group.snapshot()["alive"] == SHARDS

    def test_worker_reported_error_names_the_morsel_and_is_not_retried(
        self, sharded_engine, monkeypatch
    ):
        group = sharded_engine.start_shards()
        sends = []

        def malformed_spec_on_the_first_morsel(handle, message, send):
            if message["lo"] == 0:
                sends.append(handle.pid)
                message = {**message, "spec": {"strategy": "swole"}}
            send(handle, message)

        self.intercept_sends(monkeypatch, malformed_spec_on_the_first_morsel)
        before = group.snapshot()
        with pytest.raises(
            ExecutionError,
            match=r"morsel 0 \(rows \[0, \d+\)\) .*PlanError: malformed "
            r"compile spec",
        ):
            sharded_engine.execute(logical_plan("Q6"), "swole")
        after = group.snapshot()
        assert len(sends) == 1  # deterministic: retrying reproduces it
        for counter in ("retries", "crashes", "restarts"):
            assert after[counter] == before[counter], counter
        assert after["alive"] == SHARDS


class TestOnePool:
    """Sharded morsels drain on the engine's persistent pool threads."""

    def test_sharded_queries_start_no_threads(
        self, sharded_engine, monkeypatch
    ):
        plan = logical_plan("Q6")
        sharded_engine.execute(plan, "swole")  # pool threads are up
        started = []
        real = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            real(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for _ in range(20):
            assert sharded_engine.execute(plan, "swole").metrics.sharded
        assert started == []

    def test_concurrent_sharded_queries_share_the_group(self, sharded_engine):
        # More clients than cores or shards, switching often: every
        # answer exact, every task accounted, every shard id returned.
        plans = [logical_plan("Q1"), logical_plan("Q6")]
        expected = [
            repr(sharded_engine.execute(plan, "swole").value)
            for plan in plans
        ]
        group = sharded_engine.start_shards()
        tasks_before = group.snapshot()["tasks"]
        clients, rounds = 6, 4
        sent, wrong, errors = [], [], []

        def client(offset):
            try:
                for i in range(rounds):
                    which = (offset + i) % len(plans)
                    result = sharded_engine.execute(plans[which], "swole")
                    sent.append(result.metrics.morsels)
                    if repr(result.value) != expected[which]:
                        wrong.append(which)
            except Exception as exc:  # any raise is the finding
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(clients)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive(), "sharded clients wedged"
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not wrong
        assert len(sent) == clients * rounds
        assert group.snapshot()["tasks"] - tasks_before == sum(sent)
        assert group._idle.qsize() == group.shards


class TestLifecycle:
    def test_snapshot_shape_and_idempotent_stop(self, cached_tpch_db):
        engine = Engine(
            cached_tpch_db, shards=SHARDS, knobs=NO_FLOOR
        )
        group = engine.start_shards()
        engine.execute(logical_plan("Q6"), "swole")
        snapshot = group.snapshot()
        assert snapshot["shards"] == SHARDS
        assert snapshot["alive"] == SHARDS
        assert snapshot["tasks"] >= 1
        group.stop()
        group.stop()  # idempotent
        assert group.snapshot()["alive"] == 0
        engine.shutdown()
        engine.shutdown()  # idempotent


class TestService:
    def test_request_shards_served_and_identical(
        self, serial_engine, sharded_engine
    ):
        from repro.plan import plan_to_wire
        from repro.server.protocol import encode_value

        plan = logical_plan("Q6")
        expected = serial_engine.execute(plan, "swole").value
        with QueryService(sharded_engine, concurrency=2) as service:
            response = service.execute(
                QueryRequest(
                    query=plan_to_wire(plan),
                    strategy="swole",
                    shards=SHARDS,
                )
            )
        assert response.ok
        assert response.value == encode_value(expected)

    def test_request_wire_roundtrip_and_validation(self):
        plan = logical_plan("Q6")
        request = QueryRequest(query=plan, shards=4)
        assert QueryRequest.from_wire(request.to_wire()).shards == 4
        bad = QueryRequest(query=plan).to_wire()
        bad["shards"] = -1
        with pytest.raises(ProtocolError, match="shards"):
            QueryRequest.from_wire(bad)
