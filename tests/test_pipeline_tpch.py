"""The staged lowering pipeline vs the hand-coded TPC-H oracles.

Q1/Q3/Q6/Q14 now compile from logical operator trees through the
strategy pass framework; the hand-coded ``tpch/qXX.py`` strategy
functions are demoted to equivalence oracles. The central invariant:
for every pipeline query and every strategy, the generic compiler
produces *byte-identical* results to both the oracle program and the
NumPy reference, at a simulated cost within noise of the oracle's.
"""

import numpy as np
import pytest

import repro
from repro.datagen import microbench as mb
from repro.engine import Engine, ExecutionKnobs, Session, plan_key
from repro.engine.program import results_equal
from repro.plan.ops import plan_fingerprint
from repro.tpch import (
    PIPELINE_QUERIES,
    STRATEGIES,
    logical_plan,
    oracle_tpch,
    reference_result,
)

from .conftest import compile_named

#: The generic compiler must land within this cost band of the oracle —
#: wide enough for bookkeeping differences (selection-vector charging,
#: merged prepass masks), tight enough to catch a lost technique.
COST_BAND = (0.70, 1.30)


@pytest.mark.parametrize("name", PIPELINE_QUERIES)
@pytest.mark.parametrize("strategy", STRATEGIES)
class TestPipelineVsOracle:
    def test_results_byte_identical(self, tpch_db, name, strategy):
        pipe = compile_named(name, strategy, tpch_db).run(Session())
        oracle = oracle_tpch(name, strategy, tpch_db).run(Session())
        assert results_equal(pipe, oracle), (name, strategy)

    def test_results_match_reference(self, tpch_db, name, strategy):
        expected = reference_result(name, tpch_db)
        result = compile_named(name, strategy, tpch_db).run(Session())
        assert set(result.value) == set(expected)
        for key in expected:
            lhs, rhs = expected[key], result.value[key]
            if isinstance(lhs, np.ndarray):
                assert np.array_equal(lhs, np.asarray(rhs)), (
                    name,
                    strategy,
                    key,
                )
            else:
                assert lhs == rhs, (name, strategy, key)

    def test_cost_within_band_of_oracle(self, tpch_db, name, strategy):
        # The oracles always read decoded values, so the band compares
        # like with like: encoding off. The compressed access path's
        # cycle advantage is pinned separately below.
        pipe = compile_named(name, strategy, tpch_db, encoding="off"
        ).run(Session())
        oracle = oracle_tpch(name, strategy, tpch_db).run(Session())
        ratio = pipe.cycles / oracle.cycles
        assert COST_BAND[0] <= ratio <= COST_BAND[1], (
            name,
            strategy,
            ratio,
        )

    def test_encoded_no_costlier_than_decoded(self, tpch_db, name, strategy):
        # Streaming codes instead of 8-byte values must answer
        # byte-identically and stay within 1% of the decoded cycles:
        # on compute-bound kernels the overlap model already hides the
        # streams under arithmetic, so narrowing them saves nothing and
        # the late-materialization decode is the only marginal term.
        # Access-bound kernels (Q6 swole) win outright — pinned by the
        # compression bench.
        encoded = compile_named(name, strategy, tpch_db).run(Session())
        decoded = compile_named(name, strategy, tpch_db, encoding="off"
        ).run(Session())
        assert results_equal(encoded, decoded), (name, strategy)
        assert encoded.cycles <= decoded.cycles * 1.01, (
            name,
            strategy,
            encoded.cycles / decoded.cycles,
        )

    def test_access_bound_scan_wins_encoded(self, tpch_db, name, strategy):
        # The headline SWOLE result: on the scan-dominated Q6 the
        # compressed access path must beat the decoded one outright.
        if name != "Q6" or strategy != "swole":
            pytest.skip("access-bound headline cell only")
        encoded = compile_named(name, strategy, tpch_db).run(Session())
        decoded = compile_named(name, strategy, tpch_db, encoding="off"
        ).run(Session())
        assert encoded.cycles < decoded.cycles * 0.85, (
            encoded.cycles / decoded.cycles
        )


class TestGroupedOrdering:
    @pytest.mark.parametrize("name", ("Q1", "Q3"))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_grouped_keys_ascending(self, tpch_db, name, strategy):
        result = compile_named(name, strategy, tpch_db).run(Session())
        keys = np.asarray(result.value["keys"])
        assert np.all(keys[:-1] < keys[1:]), (name, strategy)

    def test_q1_count_column_last(self, tpch_db):
        result = compile_named("Q1", "swole", tpch_db).run(Session())
        counts = result.value["aggs"][:, 5]
        shipdate = tpch_db.table("lineitem")["l_shipdate"]
        assert int(counts.sum()) == int((shipdate <= 10471).sum())


class TestCompileRouting:
    def test_pipeline_queries_carry_ir_notes(self, tpch_db):
        for name in PIPELINE_QUERIES:
            compiled = compile_named(name, "swole", tpch_db)
            assert compiled.notes["fingerprint"].startswith("ir:")
            assert "explain" in compiled.notes

    def test_no_hand_coded_program_on_execution_path(self, tpch_db):
        # Every TPC-H name compiles through the staged pipeline; the
        # hand-coded modules are reachable only via oracle_tpch.
        for name in ("Q4", "Q5", "Q13", "Q19"):
            compiled = compile_named(name, "swole", tpch_db)
            assert compiled.notes["fingerprint"].startswith("ir:")

    def test_oracle_stays_hand_coded(self, tpch_db):
        for name in ("Q1", "Q4", "Q13"):
            oracle = oracle_tpch(name, "swole", tpch_db)
            assert "fingerprint" not in oracle.notes

    def test_fingerprint_matches_plan(self, tpch_db):
        compiled = compile_named("Q6", "hybrid", tpch_db)
        assert compiled.notes["fingerprint"] == plan_fingerprint(
            logical_plan("Q6")
        )


class TestExplain:
    def test_explain_shows_all_three_stages(self, tpch_db):
        engine = Engine(db=tpch_db)
        text = engine.explain(logical_plan("Q3"), "swole")
        assert "== Logical plan ==" in text
        assert "== Passes ==" in text
        assert "== Physical plan ==" in text
        engine.shutdown()

    def test_explain_shows_cost_estimates(self, tpch_db):
        engine = Engine(db=tpch_db)
        text = engine.explain(logical_plan("Q3"), "swole")
        assert "est cycles" in text
        assert "bitmap" in text
        engine.shutdown()

    def test_explain_decisions_line(self, tpch_db):
        engine = Engine(db=tpch_db)
        text = engine.explain(logical_plan("Q1"), "swole")
        assert "decisions:" in text
        # The §III-B pass weighs hybrid vs key masking vs value masking
        # and prints all three estimates before its pick.
        assert "key_masking=" in text
        assert "value_masking=" in text
        assert "aggregation=value_mask" in text
        engine.shutdown()

    @pytest.mark.parametrize("name", ("Q4", "Q5", "Q13", "Q19"))
    def test_explain_renders_three_stages_for_new_queries(
        self, tpch_db, name
    ):
        engine = Engine(db=tpch_db)
        text = engine.explain(logical_plan(name), "swole")
        assert text.startswith("== Logical plan ==")
        assert "== Passes ==" in text
        assert "== Physical plan ==" in text
        engine.shutdown()

    def test_explain_accepts_logical_plans(self, tpch_db):
        engine = Engine(db=tpch_db)
        text = engine.explain(logical_plan("Q6"), "datacentric")
        assert "== Physical plan ==" in text
        assert "Filter[branch]" in text
        engine.shutdown()


class TestEngineIntegration:
    def test_pipeline_queries_cache_by_ir(self, tpch_db):
        from repro.tpch.plans import q6_plan

        engine = Engine(db=tpch_db)
        cached = engine.compile(logical_plan("Q6"), "swole")
        rebuilt = engine.compile(q6_plan(), "swole")  # a distinct object
        assert cached is rebuilt  # same fingerprint -> same cache slot
        engine.shutdown()

    def test_parallel_run_matches_serial(self, tpch_db):
        # morsel_rows pinned: below the vectorized fan-out floor the
        # default policy would (correctly) keep this scan serial.
        engine = Engine(
            db=tpch_db,
            workers=4,
            knobs=ExecutionKnobs(morsel_rows=2048),
        )
        for name in ("Q1", "Q6"):
            plan = logical_plan(name)
            serial = engine.execute(plan, "swole", workers=1)
            parallel = engine.execute(plan, "swole", workers=4)
            assert parallel.metrics.workers == 4
            assert results_equal(serial, parallel), name
        engine.shutdown()


class TestMicroQueriesThroughPipeline:
    """The microbench queries are operator trees like TPC-H's; the
    pipeline must give the reference engine's answer on them too, on
    both backends."""

    @staticmethod
    def _assert_matches_reference(query, db, strategy):
        from repro.codegen.pipeline import compile_pipeline
        from repro.engine import reference

        expected = reference.evaluate(query, db)
        for backend in ("instrumented", "vectorized"):
            pipe = compile_pipeline(
                query, db, plan_key(query, strategy, backend=backend)
            )
            value = pipe.run(Session()).value
            assert set(value) == set(expected), backend
            for key in expected:
                assert np.array_equal(
                    np.asarray(value[key]), np.asarray(expected[key])
                ), (backend, key)

    @pytest.mark.parametrize(
        "query", [mb.q1(30), mb.q2(30), mb.q4(50, 50)], ids=["q1", "q2", "q4"]
    )
    @pytest.mark.parametrize("strategy", ("datacentric", "hybrid"))
    def test_matches_codegen(self, micro_db, query, strategy):
        self._assert_matches_reference(query, micro_db, strategy)

    @pytest.mark.parametrize(
        "query", [mb.q1(30), mb.q2(30), mb.q4(50, 50)], ids=["q1", "q2", "q4"]
    )
    def test_matches_swole_planner(self, micro_db, query):
        self._assert_matches_reference(query, micro_db, "swole")


class TestStrategyRegistry:
    def test_available_strategies_typed(self):
        names = repro.available_strategies()
        assert isinstance(names, list)
        assert all(isinstance(n, str) for n in names)
        assert names == sorted(STRATEGIES)
