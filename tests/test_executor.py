"""Morsel executor: parallel runs give the same answers as serial runs.

Only vectorized programs fan out; the instrumented backend — the
paper's clock — is one serial pass whatever the worker or shard count.
These tests pin the two contracts that matter most: for every strategy
and every query, ``workers=4`` produces the same answers as
``workers=1``, and the simulated cycles of a run depend only on the
plan and the data.
"""

import pytest

from repro.datagen import microbench as mb
from repro.datagen import tpch as tpchgen
from repro.datagen.cache import load_dataset
from repro.engine import Engine, ExecutionKnobs, MorselExecutor
from repro.engine.executor import MIN_MORSEL_ROWS
from repro.engine.program import results_equal
from repro.tpch import STRATEGIES as TPCH_STRATEGIES
from repro.tpch import logical_plan, query_names

#: ``rof`` is relaxed operator fusion as the paper describes it: hybrid
#: plus software-prefetched hash-table accesses (the ``ht_prefetch``
#: knob), on the instrumented backend — the one that prices a prefetch.
STRATEGIES = ("datacentric", "hybrid", "rof", "swole")

MICRO_QUERIES = {
    "q1-mul": lambda: mb.q1(30, "mul"),
    "q1-div": lambda: mb.q1(30, "div"),
    "q2": lambda: mb.q2(30),
    "q3-rb": lambda: mb.q3(30, "r_b"),
    "q3-rx": lambda: mb.q3(30, "r_x"),
    "q4": lambda: mb.q4(50, 50),
    "q5": lambda: mb.q5(30),
    "q5-eager": lambda: mb.q5(75),
}


@pytest.fixture(scope="module")
def micro_engine(micro_db):
    return Engine(db=micro_db, workers=4)


@pytest.fixture(scope="module")
def forced_parallel_engine(micro_db):
    # Pinning the morsel size overrides the vectorized backend's
    # fan-out floor, so workers>1 genuinely runs the morsel path even
    # at this test-sized table.
    return Engine(
        db=micro_db, workers=4, knobs=ExecutionKnobs(morsel_rows=4096)
    )


@pytest.fixture(scope="module")
def tpch_engine(tpch_db):
    return Engine(db=tpch_db, workers=4)


class TestMicrobenchEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("query_name", sorted(MICRO_QUERIES))
    def test_parallel_matches_serial(
        self, micro_engine, strategy, query_name
    ):
        query = MICRO_QUERIES[query_name]()
        rof = strategy == "rof"

        def run(workers):
            session = micro_engine.session()
            session.knobs.ht_prefetch = rof
            return micro_engine.execute(
                query,
                "hybrid" if rof else strategy,
                workers=workers,
                session=session,
                backend="instrumented" if rof else None,
            )

        assert results_equal(run(1), run(4))

    @pytest.mark.parametrize("workers", (2, 3, 7))
    def test_any_worker_count(self, micro_engine, workers):
        query = mb.q2(40)
        serial = micro_engine.execute(query, "swole", workers=1)
        parallel = micro_engine.execute(query, "swole", workers=workers)
        assert results_equal(serial, parallel)

    def test_grouped_keys_ascending(self, micro_engine):
        result = micro_engine.execute(mb.q2(40), "swole", workers=4)
        keys = list(result.value["keys"])
        assert keys == sorted(keys)


class TestTpchEquivalence:
    @pytest.mark.parametrize(
        "strategy", ("interpreter", "datacentric", "hybrid", "swole")
    )
    @pytest.mark.parametrize("name", query_names())
    def test_parallel_matches_serial(self, tpch_engine, strategy, name):
        plan = logical_plan(name)
        serial = tpch_engine.execute(plan, strategy, workers=1)
        parallel = tpch_engine.execute(plan, strategy, workers=4)
        assert results_equal(serial, parallel)


class TestRunMetrics:
    def test_parallel_scan_metrics(self, forced_parallel_engine):
        # Parallel time is wall time: one busy-seconds entry per lane,
        # no simulated schedule.
        result = forced_parallel_engine.execute(mb.q1(30), "swole", workers=4)
        metrics = result.metrics
        assert metrics.parallel and metrics.workers == 4
        assert metrics.morsels > 1
        assert [s.worker_id for s in metrics.worker_stats] == [0, 1, 2, 3]
        assert sum(s.wall_seconds for s in metrics.worker_stats) > 0
        assert "workers" in metrics.describe()

    def test_serial_metrics_degenerate(self, micro_engine):
        result = micro_engine.execute(
            mb.q1(30), "swole", workers=4, backend="instrumented"
        )
        metrics = result.metrics
        assert metrics.workers == 1 and not metrics.parallel
        assert metrics.worker_stats == []
        assert metrics.total_seconds == result.seconds > 0

    def test_eager_groupjoin_runs_parallel(self, forced_parallel_engine):
        engine = forced_parallel_engine
        compiled = engine.compile(mb.q5(75))
        assert "eager" in compiled.notes.get("plan", "")
        assert compiled.parallel is not None
        serial = engine.execute(mb.q5(75), workers=1)
        parallel = engine.execute(mb.q5(75), workers=4)
        assert results_equal(serial, parallel)
        assert parallel.metrics.morsels > 1

    def test_event_counts_recorded(self, micro_engine):
        result = micro_engine.execute(
            mb.q1(30), "swole", workers=4, backend="instrumented"
        )
        counts = result.metrics.event_counts
        assert counts and all(n > 0 for n in counts.values())

    def test_scan_rows_consistent_across_paths(self, forced_parallel_engine):
        # parallel: morsels cover the scan; serial: one morsel spanning
        # it, so morsel_rows == scan_rows in both metric conventions
        engine = forced_parallel_engine
        parallel = engine.execute(mb.q1(30), "swole", workers=4)
        serial = engine.execute(mb.q1(30), "swole", workers=1)
        p, s = parallel.metrics, serial.metrics
        assert p.scan_rows == s.scan_rows == 50_000
        assert s.morsel_rows == s.scan_rows
        assert p.morsel_rows * (p.morsels - 1) < p.scan_rows
        assert p.morsel_rows * p.morsels >= p.scan_rows
        assert p.parallel and not s.parallel

    def test_scan_rows_zero_without_parallel_plan(self, micro_engine):
        result = micro_engine.execute(mb.q1(30), "interpreter", workers=4)
        assert result.metrics.scan_rows == 0
        assert result.metrics.morsel_rows == 0


class TestExecutorEdges:
    def test_interpreter_never_parallel(self, micro_engine):
        result = micro_engine.execute(mb.q1(30), "interpreter", workers=4)
        assert result.metrics.morsels == 1

    def test_tiny_table_stays_serial(self, micro_db):
        # below MIN_MORSEL_ROWS the fan-out cannot pay for itself
        tiny = mb.generate(
            mb.MicrobenchConfig(num_rows=512, s_rows=64, c_cardinality=8)
        )
        assert 512 <= MIN_MORSEL_ROWS
        engine = Engine(db=tiny, workers=4)
        result = engine.execute(mb.q1(30), "swole", workers=4)
        assert result.metrics.morsels == 1

    def test_executor_rejects_bad_workers(self):
        with pytest.raises(Exception):
            MorselExecutor(workers=0)


class TestPaperClockRepeats:
    """The paper's clock is one serial pass: an instrumented run's
    cycles, per-kernel split and event counts repeat exactly across
    ``workers``, ``shards`` and repetitions, and it never fans out —
    even with a pinned morsel size small enough that every scan would
    split into many morsels."""

    RUNS = 5
    MODES = ({"workers": 1}, {"workers": 2}, {"workers": 4}, {"shards": 2})

    @pytest.fixture(scope="class")
    def engines(self):
        knobs = ExecutionKnobs(morsel_rows=1024)
        tpch = load_dataset("tpch", tpchgen.TpchConfig(scale_factor=0.002))
        micro = load_dataset(
            "microbench",
            mb.MicrobenchConfig(num_rows=20_000, s_rows=200, c_cardinality=16),
        )
        with Engine(
            tpch, backend="instrumented", knobs=knobs
        ) as on_tpch, Engine(
            micro, backend="instrumented", knobs=knobs
        ) as on_micro:
            yield {"tpch": on_tpch, "micro": on_micro}

    CELLS = [
        ("tpch", name, strategy)
        for name in query_names()
        for strategy in TPCH_STRATEGIES
    ] + [
        ("micro", name, strategy)
        for name in sorted(MICRO_QUERIES)
        for strategy in ("datacentric", "hybrid", "swole")
    ]

    @pytest.mark.parametrize("db,name,strategy", CELLS)
    def test_cycles_repeat_across_run_modes(self, engines, db, name, strategy):
        engine = engines[db]
        plan = logical_plan(name) if db == "tpch" else MICRO_QUERIES[name]()
        first = None
        for mode in self.MODES:
            for _ in range(self.RUNS):
                result = engine.execute(plan, strategy, **mode)
                metrics = result.metrics
                assert metrics.parallel is False, mode
                seen = (
                    metrics.total_cycles,
                    dict(result.report.by_kernel),
                    metrics.event_counts,
                    repr(result.value),
                )
                if first is None:
                    first = seen
                assert seen == first, mode
