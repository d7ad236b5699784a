"""The Engine facade, session knobs, and deprecated entry points."""

import dataclasses
import inspect
import warnings

import pytest

import repro
from repro.datagen import microbench as mb
from repro.engine import Engine, ExecutionKnobs, Session
from repro.engine.machine import PAPER_MACHINE
from repro.engine.program import results_equal
from repro.errors import PlanError, ReproError
from repro.plan import AggSpec, Col, Const, PlanBuilder
from repro.tpch import logical_plan


def hand_built_q5(sel):
    """µQ5 spelled out with the builder, independent of ``mb.q5``."""
    return (
        PlanBuilder.scan("R")
        .join(
            PlanBuilder.scan("S").filter(Col("s_x") < Const(sel)),
            fk_column="r_fk",
            pk_column="s_pk",
        )
        .group_agg(AggSpec("sum", Col("r_a") * Col("r_b")), key="r_fk")
        .build(f"uQ5[{sel}]")
    )


@pytest.fixture()
def engine(micro_db):
    return Engine(db=micro_db, workers=4)


class TestEngineCompile:
    def test_auto_resolves_to_swole(self, engine):
        compiled = engine.compile(mb.q1(30))
        assert compiled.strategy == "swole"

    def test_explicit_strategy(self, engine):
        compiled = engine.compile(mb.q1(30), "datacentric")
        assert compiled.strategy == "datacentric"

    def test_warm_compile_skips_codegen(self, engine):
        engine.compile(mb.q1(30))
        misses_after_first = engine.cache_stats.misses
        again = engine.compile(mb.q1(30))
        assert engine.cache_stats.misses == misses_after_first
        assert engine.cache_stats.hits >= 1
        assert again is engine.compile(mb.q1(30))

    def test_tpch_by_name(self, tpch_db):
        # The name addresses the operator tree, not the engine: a bare
        # string is a typed error that spells out the replacement.
        engine = Engine(db=tpch_db)
        result = engine.execute(logical_plan("Q6"), "hybrid")
        assert result.value
        for call in (engine.execute, engine.compile, engine.explain):
            with pytest.raises(ReproError) as excinfo:
                call("Q6")
            assert 'repro.tpch.logical_plan("Q6")' in str(excinfo.value)

    def test_unsupported_query_type_is_a_typed_error(self, engine):
        with pytest.raises(ReproError, match="LogicalPlan"):
            engine.execute({"micro": "q1"})

    @pytest.mark.parametrize("backend", ("instrumented", "vectorized"))
    def test_unknown_strategy_is_one_error_type(self, engine, backend):
        # Whichever builder made the tree, the one compiler rejects it.
        for spelling in (mb.q5(30), hand_built_q5(30)):
            with pytest.raises(PlanError, match="unknown strategy 'rof'"):
                engine.compile(spelling, "rof", backend=backend)

    def test_invalidate_forces_recompile(self, engine):
        first = engine.compile(mb.q2(30))
        engine.invalidate()
        second = engine.compile(mb.q2(30))
        assert first is not second
        assert engine.cache_stats.invalidations == 1


class TestOneCompiler:
    """The microbench factory's tree and the same tree built by hand are
    one query: one plan-cache entry, one compiler, one cycle count —
    whichever spelling arrives first."""

    @pytest.mark.parametrize("factory_first", (True, False))
    def test_both_spellings_share_entry_and_cycles(
        self, micro_db, factory_first
    ):
        engine = Engine(micro_db, backend="instrumented")
        spellings = [mb.q5(50), hand_built_q5(50)]
        if not factory_first:
            spellings.reverse()
        first = engine.execute(spellings[0], "hybrid")
        second = engine.execute(spellings[1], "hybrid")
        assert first.metrics.plan_cache == "miss"
        assert second.metrics.plan_cache == "hit"
        assert len(engine.plan_cache) == 1
        assert first.metrics.total_cycles == second.metrics.total_cycles
        assert results_equal(first, second)

    def test_cycles_do_not_depend_on_arrival_order(self, micro_db):
        def cycles(spelling):
            engine = Engine(micro_db, backend="instrumented")
            return engine.execute(spelling, "hybrid").metrics.total_cycles

        assert cycles(mb.q5(50)) == cycles(hand_built_q5(50))

    def test_microbench_plan_explains_through_the_stages(self, micro_db):
        engine = Engine(micro_db, backend="instrumented")
        text = engine.explain(mb.q1(30))
        assert text.startswith("== Logical plan ==")
        assert "== Passes ==" in text and "== Physical plan ==" in text
        assert text.endswith("== Backend ==\ninstrumented")
        notes = engine.compile(mb.q1(30)).notes
        assert set(notes["estimated_stats"]) >= {
            "local_selectivity", "survival", "group_cardinality",
        }


class TestEngineExecute:
    def test_execute_tags_cache_outcome(self, engine):
        cold = engine.execute(mb.q1(40))
        warm = engine.execute(mb.q1(40))
        assert cold.metrics.plan_cache == "miss"
        assert warm.metrics.plan_cache == "hit"
        assert results_equal(cold, warm)

    def test_worker_override_per_call(self, micro_db):
        # Pin the morsel size: the vectorized backend prefers serial
        # below its fan-out floor, and this test is about the worker
        # override reaching the executor, not that policy.
        engine = Engine(
            db=micro_db,
            workers=4,
            knobs=ExecutionKnobs(morsel_rows=4096),
        )
        with engine:
            serial = engine.execute(mb.q1(40), workers=1)
            assert serial.metrics.workers == 1
            default = engine.execute(mb.q1(40))
            assert default.metrics.workers == 4

    def test_strategies_agree_through_engine(self, engine):
        results = [
            engine.execute(mb.q1(30), strategy)
            for strategy in repro.available_strategies()
        ]
        assert len(results) == 4
        for other in results[1:]:
            assert results_equal(results[0], other)

    def test_engine_rejects_zero_workers(self, micro_db):
        with pytest.raises(ReproError):
            Engine(db=micro_db, workers=0)

    def test_engine_never_writes_to_the_callers_knobs(self, micro_db):
        # One knobs object configuring two engines: the first engine's
        # keyword defaults must not reach the second through it.
        knobs = ExecutionKnobs(morsel_rows=4096)
        first = Engine(micro_db, knobs=knobs, backend="instrumented")
        first.knobs.min_parallel_rows = 7
        assert knobs == ExecutionKnobs(morsel_rows=4096)
        second = Engine(micro_db, knobs=knobs)
        assert second.knobs == knobs and second.knobs is not knobs
        program = second.compile(mb.q1(30))
        assert program.notes["spec"].backend == "vectorized"
        assert first.compile(mb.q1(30)).notes["spec"].backend == (
            "instrumented"
        )


class TestSessionApi:
    def test_session_is_keyword_only(self):
        with pytest.raises(TypeError):
            Session(PAPER_MACHINE)  # positional machine no longer allowed

    def test_reset_returns_self(self):
        session = Session()
        assert session.reset() is session

    def test_knobs_dataclass_defaults(self):
        knobs = ExecutionKnobs()
        assert knobs.ht_prefetch is False
        assert knobs.morsel_rows is None

    def test_knobs_hold_only_what_a_run_reads(self):
        # Engine defaults (backend, shards) are Engine attributes.
        assert [f.name for f in dataclasses.fields(ExecutionKnobs)] == [
            "ht_prefetch", "morsel_rows", "min_parallel_rows",
        ]

    def test_engine_has_one_spelling_per_setting(self):
        # The fan-out floor is a knob (``knobs=ExecutionKnobs(
        # min_parallel_rows=...)``), not a second Engine parameter.
        assert list(inspect.signature(Engine).parameters) == [
            "db", "machine", "workers",
            "knobs", "registry", "backend", "encoding", "adaptive",
            "shards",
        ]

    def test_rof_prefetch_does_not_leak(self, engine):
        # ROF-style prefetching is a per-session knob: the run that
        # carries it prices prefetched probes, the engine-level default
        # knobs must come out untouched.
        session = engine.session()
        session.knobs.ht_prefetch = True
        session.knobs.morsel_rows = 4096
        result = engine.execute(
            mb.q4(50, 50), "hybrid", workers=4, session=session,
            backend="instrumented",
        )
        assert not result.metrics.parallel  # the paper's clock is serial
        assert any(
            getattr(event, "prefetched", False)
            for _, event, _ in result.report.events
        )
        assert engine.knobs.ht_prefetch is False


class TestRemovedWrappers:
    def test_deprecated_wrappers_are_gone(self):
        # The pre-1.2 module-level compile_query / compile_swole shims
        # were removed; Engine.compile is the supported path.
        assert not hasattr(repro, "compile_query")
        assert not hasattr(repro, "compile_swole")
        assert "compile_query" not in repro.__all__
        assert "compile_swole" not in repro.__all__

    def test_engine_compile_replaces_wrappers(self, micro_db):
        engine = Engine(db=micro_db)
        hybrid = engine.compile(mb.q1(30), "hybrid")
        assert hybrid.run().value
        swole = engine.compile(mb.q1(30), "swole")
        assert swole.strategy == "swole"

    def test_engine_exported_from_top_level(self):
        assert repro.Engine is Engine
        for name in ("Engine", "RunMetrics", "PlanCache", "MorselExecutor"):
            assert name in repro.__all__

    def test_engine_path_emits_no_deprecation(self, micro_db):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Engine(db=micro_db).execute(mb.q1(30), "hybrid")
