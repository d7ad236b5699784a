"""Worker pool lifecycle, cancellation, and determinism.

The pool's contract: threads start lazily and are reused across
queries (no per-query spawn), ``shutdown()`` is idempotent and the
context manager tears threads down, a batch's first morsel failure
cancels the remaining morsels and re-raises naming the morsel, and
pooled runs give the same answers as a serial run.
"""

import threading

import pytest

from repro.datagen import microbench as mb
from repro.engine import Engine, MorselBatch, WorkerPool
from repro.engine.pool import THREAD_NAME_PREFIX
from repro.engine.program import results_equal
from repro.engine.session import ExecutionKnobs
from repro.errors import ExecutionError

from .conftest import drain


def pool_thread_ids():
    """Idents of live repro worker-pool threads.

    Comparisons below are delta-based: other tests (e.g. module-scoped
    engines in test_executor) may legitimately leave pool threads
    running until interpreter exit.
    """
    return {
        t.ident
        for t in threading.enumerate()
        if t.name.startswith(THREAD_NAME_PREFIX + "_")
    }


class FailingPlan:
    """A fake parallel plan: counts rows, can fail at chosen morsels."""

    def __init__(self, fail_at=()):
        self.fail_at = set(fail_at)

    def partial(self, ctx, lo, hi):
        if lo in self.fail_at:
            raise ValueError(f"injected failure at {lo}")
        return {"rows": hi - lo}


def make_batch(n_morsels=8, workers=2, fail_at=()):
    plan = FailingPlan(fail_at=fail_at)
    morsels = [(i * 100, (i + 1) * 100) for i in range(n_morsels)]
    return MorselBatch(plan, None, morsels, "test", workers)


class TestPoolLifecycle:
    def test_threads_start_lazily_and_are_reused(self, micro_db):
        before = pool_thread_ids()
        with Engine(
            db=micro_db,
            workers=4,
            knobs=ExecutionKnobs(morsel_rows=4096),
        ) as engine:
            assert not engine.pool.started
            assert pool_thread_ids() == before
            engine.execute(mb.q1(30), "swole", workers=4)
            first = pool_thread_ids() - before
            assert len(first) >= 4
            engine.execute(mb.q2(30), "swole", workers=4)
            second = pool_thread_ids() - before
            assert second == first  # reused, not respawned

    def test_shutdown_idempotent_and_joins_threads(self, micro_db):
        before = pool_thread_ids()
        engine = Engine(
            db=micro_db,
            workers=2,
            knobs=ExecutionKnobs(morsel_rows=4096),
        )
        engine.execute(mb.q1(30), "swole", workers=2)
        assert pool_thread_ids() - before
        engine.shutdown()
        assert pool_thread_ids() == before
        engine.shutdown()  # second call is a no-op
        # the pool restarts lazily if the engine is used again
        result = engine.execute(mb.q1(30), "swole", workers=2)
        assert result.metrics.parallel
        engine.shutdown()
        assert pool_thread_ids() == before

    def test_context_manager_exit_stops_threads(self, micro_db):
        before = pool_thread_ids()
        with Engine(
            db=micro_db,
            workers=2,
            knobs=ExecutionKnobs(morsel_rows=4096),
        ) as engine:
            engine.execute(mb.q1(30), "swole", workers=2)
            assert pool_thread_ids() - before
        assert pool_thread_ids() == before

    def test_no_thread_leak_across_queries(self, micro_db):
        with Engine(db=micro_db, workers=4) as engine:
            engine.execute(mb.q1(30), "swole", workers=4)
            baseline = threading.active_count()
            for _ in range(10):
                engine.execute(mb.q1(30), "swole", workers=4)
            assert threading.active_count() == baseline

    def test_pool_grows_for_larger_worker_requests(self, micro_db):
        before = pool_thread_ids()
        with Engine(
            db=micro_db,
            workers=2,
            knobs=ExecutionKnobs(morsel_rows=4096),
        ) as engine:
            serial = engine.execute(mb.q2(40), "swole", workers=1)
            wide = engine.execute(mb.q2(40), "swole", workers=6)
            assert len(pool_thread_ids() - before) >= 6
            assert results_equal(serial, wide)

    def test_pool_rejects_bad_worker_count(self):
        with pytest.raises(ExecutionError):
            WorkerPool(workers=0)


class TestLifecycleRaces:
    def test_concurrent_ensure_and_shutdown_never_wedge(self):
        # ensure_started and shutdown hammered from two threads must
        # never deadlock, and the pool must still run a batch and shut
        # down cleanly afterwards. Bounded iterations keep the test
        # deterministic-fast; the join below is the liveness assertion.
        pool = WorkerPool(workers=2)
        stop = threading.Event()
        errors = []

        def hammer(action):
            try:
                while not stop.is_set():
                    action()
            except Exception as exc:  # any raise is the finding
                errors.append(exc)

        threads = [
            threading.Thread(
                target=hammer, args=(pool.ensure_started,), daemon=True
            ),
            threading.Thread(
                target=hammer, args=(pool.shutdown,), daemon=True
            ),
        ]
        for t in threads:
            t.start()
        import time

        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive(), "lifecycle hammer deadlocked"
        assert not errors
        # whatever state the race ended in, the pool still works...
        batch = make_batch(n_morsels=4, workers=2)
        values, _ = pool.run_batch(batch)
        assert len(values) == 4
        # ...and shuts down cleanly.
        pool.shutdown()
        assert not pool.started


    def test_every_morsel_runs_once_under_contention(self):
        # More lanes than cores, many tiny morsels and a tiny switch
        # interval: the shared cursor must hand out each morsel exactly
        # once and keep values in morsel order, batch after batch.
        import sys

        class Counting:
            def __init__(self):
                self.ran = []

            def partial(self, ctx, lo, hi):
                self.ran.append(lo)
                return {"lo": lo}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(workers=8) as pool:
                for _ in range(5):
                    plan = Counting()
                    morsels = [(i, i + 1) for i in range(500)]
                    values, busy = pool.run_batch(
                        MorselBatch(plan, None, morsels, "stress", 8)
                    )
                    assert sorted(plan.ran) == list(range(500))
                    assert [v["lo"] for v in values] == list(range(500))
                    assert set(busy) <= set(range(8))
        finally:
            sys.setswitchinterval(interval)


class TestCancellation:
    def test_failure_cancels_and_names_morsel(self):
        batch = make_batch(n_morsels=16, workers=1, fail_at={300})
        with pytest.raises(ExecutionError, match=r"morsel 3 .*test"):
            drain(batch)
        assert batch.cancelled
        # cancelled before draining the cursor: later morsels never ran
        assert batch.values[-1] is None

    def test_failure_preserves_cause(self):
        batch = make_batch(n_morsels=4, workers=2, fail_at={0})
        with pytest.raises(ExecutionError) as info:
            drain(batch)
        assert isinstance(info.value.__cause__, ValueError)

    def test_pool_survives_a_failed_batch(self):
        with WorkerPool(workers=2) as pool:
            batch = make_batch(n_morsels=8, workers=2, fail_at={400})
            with pytest.raises(ExecutionError):
                pool.run_batch(batch)
            ok = make_batch(n_morsels=8, workers=2)
            values, busy = pool.run_batch(ok)
            assert len(values) == 8
            assert set(busy) <= {0, 1}


class TestDeterminism:
    def test_pooled_matches_serial_bit_for_bit(self, micro_db):
        # The same answer, bit for bit; only vectorized programs fan out.
        knobs = ExecutionKnobs(morsel_rows=4096)
        with Engine(db=micro_db, workers=4, knobs=knobs) as engine:
            for query in (mb.q1(30, "div"), mb.q2(40), mb.q4(50, 50)):
                pooled = engine.execute(query, "swole", workers=4)
                serial = engine.execute(query, "swole", workers=1)
                assert pooled.metrics.parallel
                assert not serial.metrics.parallel
                assert results_equal(pooled, serial)

    def test_repeated_pooled_runs_stable(self, micro_db):
        with Engine(db=micro_db, workers=4) as engine:
            first = engine.execute(mb.q1(30), "swole", workers=4)
            for _ in range(3):
                again = engine.execute(mb.q1(30), "swole", workers=4)
                assert results_equal(first, again)
                assert (
                    again.metrics.total_cycles
                    == first.metrics.total_cycles
                )
