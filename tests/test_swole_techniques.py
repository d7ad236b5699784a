"""Tests for the SWOLE technique pipelines: correctness plus the
access-pattern contracts that make them "access-aware".

Forced techniques go through the public stages (``run_passes`` -> edit
the ``Decisions`` -> ``lower_plan`` -> the instrumented run; see
``conftest.staged_program``); planner-chosen ones through the engine.
"""

import numpy as np

from repro import Engine
from repro.codegen.lower import eager_aggregate
from repro.datagen import microbench as mb
from repro.engine import Session, reference
from repro.engine.events import CondRead, RandomAccess, SeqRead
from repro.engine.hashtable import NULL_KEY
from repro.plan import passes as PS
from repro.plan.builder import PlanBuilder
from repro.plan.ops import AggSpec

from .conftest import staged_program


def run_events(compiled, kind):
    result = compiled.run(Session())
    return result, [
        e for _, e, _ in result.report.events if isinstance(e, kind)
    ]


def compile_swole(query, db, **forced):
    """The planner's SWOLE program (instrumented), or a forced one."""
    if forced:
        return staged_program(query, db, "swole", **forced)
    return Engine(db, backend="instrumented").compile(query, "swole")


class TestValueMasking:
    def test_no_conditional_reads_on_aggregate_columns(self, micro_db):
        compiled = compile_swole(
            mb.q1(50), micro_db, agg_mode=PS.VALUE_MASK
        )
        result, cond_reads = run_events(compiled, CondRead)
        agg_arrays = {e.array for e in cond_reads}
        assert "r_a" not in agg_arrays and "r_b" not in agg_arrays

    def test_flat_cost_across_selectivity(self, micro_db):
        session = Session()
        costs = [
            compile_swole(mb.q1(sel), micro_db, agg_mode=PS.VALUE_MASK)
            .run(session)
            .cycles
            for sel in (5, 50, 95)
        ]
        assert max(costs) / min(costs) < 1.05

    def test_answers_match_reference(self, micro_db):
        for sel in (0, 33, 100):
            query = mb.q1(sel)
            compiled = compile_swole(query, micro_db, agg_mode=PS.VALUE_MASK)
            expected = reference.evaluate(query, micro_db)
            assert compiled.run(Session()).value == expected

    def test_grouped_variant_drops_masked_only_groups(self, micro_db):
        query = mb.q2(10)
        compiled = compile_swole(query, micro_db, agg_mode=PS.VALUE_MASK)
        result = compiled.run(Session())
        expected = reference.evaluate(query, micro_db)
        assert np.array_equal(result.value["keys"], expected["keys"])
        assert np.array_equal(result.value["aggs"], expected["aggs"])


class TestKeyMasking:
    def test_answers_match_reference(self, micro_db):
        query = mb.q2(40)
        compiled = compile_swole(query, micro_db, agg_mode=PS.KEY_MASK)
        expected = reference.evaluate(query, micro_db)
        result = compiled.run(Session())
        assert np.array_equal(result.value["keys"], expected["keys"])
        assert np.array_equal(result.value["aggs"], expected["aggs"])

    def test_null_key_never_in_output(self, micro_db):
        compiled = compile_swole(mb.q2(1), micro_db, agg_mode=PS.KEY_MASK)
        result = compiled.run(Session())
        assert NULL_KEY not in result.value["keys"]

    def test_hash_accesses_marked_hot_at_low_selectivity(self, micro_db):
        compiled = compile_swole(mb.q2(10), micro_db, agg_mode=PS.KEY_MASK)
        _, randoms = run_events(compiled, RandomAccess)
        hot = [e for e in randoms if e.hot_fraction > 0.5]
        assert hot, "masked keys should hit the throwaway entry"

    def test_aggregate_columns_read_sequentially(self, micro_db):
        compiled = compile_swole(mb.q2(30), micro_db, agg_mode=PS.KEY_MASK)
        result, seq_reads = run_events(compiled, SeqRead)
        arrays = {e.array for e in seq_reads}
        assert {"r_a", "r_b", "r_c"} <= arrays


class TestPositionalBitmapSemijoin:
    def test_matches_hash_semijoin(self, micro_db):
        query = mb.q4(30, 60)
        engine = Engine(micro_db, backend="instrumented")
        swole = engine.execute(query, "swole")
        hybrid = engine.execute(query, "hybrid")
        assert swole.value == hybrid.value

    def test_no_hash_table_events(self, micro_db):
        compiled = compile_swole(mb.q4(30, 60), micro_db)
        _, randoms = run_events(compiled, RandomAccess)
        kinds = {e.kind for e in randoms}
        assert "ht_insert" not in kinds and "ht_lookup" not in kinds
        assert any(k.startswith("bitmap") for k in kinds) or "bitmap_test" in kinds

    def test_both_build_modes_correct(self, micro_db):
        query = mb.q4(50, 50)
        expected = reference.evaluate(query, micro_db)
        for mode in (PS.BITMAP_MASK, PS.BITMAP_OFFSETS):
            compiled = compile_swole(
                query, micro_db, join_mode=mode, agg_mode=PS.VALUE_MASK
            )
            assert f"BitmapBuild[{mode.split('_')[1]}]" in compiled.source
            assert compiled.run(Session()).value == expected

    def test_hybrid_aggregation_fallback_correct(self, micro_db):
        query = mb.q4(50, 50)
        expected = reference.evaluate(query, micro_db)
        compiled = compile_swole(
            query, micro_db, join_mode=PS.BITMAP_MASK, agg_mode=PS.GATHERED
        )
        assert compiled.run(Session()).value == expected


def eager_groupjoin(session, db, query):
    """§III-E forced on ``query`` through the staged pipeline."""
    program = staged_program(query, db, "swole", groupjoin_mode=PS.EAGER)
    return program.run(session).value


class TestEagerAggregation:
    def test_op_is_built_from_the_tree(self):
        op = eager_aggregate(mb.q5(40))
        assert op.describe() == (
            "EagerAggregate key=r_fk (cleanup scan over S)"
        )
        assert (op.table, op.pk_column) == ("R", "s_pk")
        assert op.probe_conjuncts == ()
        assert [c.to_c() for c in op.build_conjuncts] == ["s_x[i] < 40"]

    def test_matches_traditional_groupjoin(self, micro_db):
        query = mb.q5(40)
        session = Session()
        value = eager_groupjoin(session, micro_db, query)
        expected = reference.evaluate(query, micro_db)
        assert np.array_equal(value["keys"], expected["keys"])
        assert np.array_equal(value["aggs"], expected["aggs"])

    def test_deletions_charged(self, micro_db):
        session = Session()
        eager_groupjoin(session, micro_db, mb.q5(30))
        kinds = {
            e.kind
            for _, e, _ in session.tracer.report.events
            if isinstance(e, RandomAccess)
        }
        assert "ht_delete" in kinds

    def test_with_probe_side_predicate(self, micro_db):
        """EA composes with key masking when the probe side filters."""
        from repro.plan.expressions import Col, Const

        query = (
            PlanBuilder.scan("R")
            .filter(Col("r_x") < Const(40))
            .join(
                PlanBuilder.scan("S").filter(Col("s_x") < Const(60)),
                fk_column="r_fk",
                pk_column="s_pk",
            )
            .group_agg(AggSpec("sum", Col("r_a"), name="sum"), key="r_fk")
            .build("ea-with-pred")
        )
        session = Session()
        value = eager_groupjoin(session, micro_db, query)
        expected = reference.evaluate(query, micro_db)
        assert np.array_equal(value["keys"], expected["keys"])
        assert np.array_equal(value["aggs"], expected["aggs"])


class TestAccessMerging:
    def test_merged_column_read_once(self, micro_db):
        query = mb.q3(50, "r_x")
        compiled = compile_swole(query, micro_db, agg_mode=PS.VALUE_MASK)
        _, seq_reads = run_events(compiled, SeqRead)
        reads_of_x = [e for e in seq_reads if e.array == "r_x"]
        assert len(reads_of_x) == 1

    def test_merging_reduces_cost(self, micro_db):
        query = mb.q3(50, "r_x")
        merged = compile_swole(query, micro_db, agg_mode=PS.VALUE_MASK)
        assert merged.notes["decisions"].merged_columns == ("r_x",)
        unmerged = compile_swole(
            query, micro_db, agg_mode=PS.VALUE_MASK, merged_columns=()
        )
        merged_run, merged_reads = run_events(merged, SeqRead)
        unmerged_run, unmerged_reads = run_events(unmerged, SeqRead)
        assert merged_run.value == unmerged_run.value
        # One sequential pass over the shared column is saved (the
        # total is compute-bound here, so it can only tie or improve).
        saved = [e.array for e in unmerged_reads]
        for event in merged_reads:
            saved.remove(event.array)
        assert saved == ["r_x"]
        assert merged_run.cycles <= unmerged_run.cycles
        no_reuse = compile_swole(mb.q1(50), micro_db)
        assert "access_merging" not in no_reuse.notes["plan"]


class TestPlanNotes:
    def test_compiled_query_carries_plan(self, micro_db):
        compiled = compile_swole(mb.q1(50), micro_db)
        assert "aggregation=" in compiled.notes["plan"]
        assert compiled.notes["pass_estimates"]

    def test_force_overrides_planner(self, micro_db):
        query = mb.q1(50, "div")
        assert "gathered" in compile_swole(query, micro_db).notes["plan"]
        forced = compile_swole(query, micro_db, agg_mode=PS.VALUE_MASK)
        assert "value_mask" in forced.notes["plan"]
