"""Tests for the emitted code (the physical-plan rendering and the
generated kernel source every compiled program carries), the reference
engine, and ROF-style hash-table prefetching (the ``ht_prefetch``
knob)."""

import numpy as np
import pytest

from repro import Engine, ExecutionKnobs
from repro.core import planner as P
from repro.datagen import microbench as mb
from repro.engine import Session, reference
from repro.engine.events import RandomAccess
from repro.engine.hashtable import NULL_KEY
from repro.engine.program import results_equal
from repro.errors import PlanError
from repro.plan import AggSpec, PlanBuilder
from repro.plan import passes as PS
from repro.plan.expressions import Col, Const

from .conftest import staged_program


def _prefetching(**kwargs):
    """A session that runs ROF-style: hybrid's hash-table accesses are
    software-prefetched (``ExecutionKnobs.ht_prefetch``)."""
    return Session(knobs=ExecutionKnobs(ht_prefetch=True), **kwargs)


class TestEmitters:
    """What each strategy emits for the µQ shapes: the physical plan
    (``staged_program(...).source`` renders it) and, on the vectorized
    backend, the kernel source that actually ran."""

    @pytest.fixture(scope="class")
    def engine(self, micro_db):
        return Engine(micro_db)

    def test_datacentric_shape(self, micro_db):
        source = staged_program(mb.q1(13), micro_db, "datacentric").source
        assert "Filter[branch] r_x[i] < 13 AND r_y[i] == 1" in source
        assert "ScalarAgg[conditional] [sum=sum((r_a[i] * r_b[i]))]" in source

    def test_hybrid_has_three_inner_loops(self, micro_db, engine):
        # prepass -> selection -> aggregate over the survivors
        source = staged_program(mb.q1(13), micro_db, "hybrid").source
        assert "Filter[prepass]" in source and "ScalarAgg[gathered]" in source
        kernel = engine.compile(mb.q1(13), "hybrid").source
        assert "mask = mask & " in kernel
        assert "v['r_a'][mask]" in kernel and "np.sum(" in kernel

    def test_rof_has_prefetch_for_hash_queries(self, micro_db):
        # every hash-table operator honours the knob: semijoin build +
        # probe (µQ4) and groupjoin build + aggregate (µQ5)
        for query in (mb.q4(40, 60), mb.q5(40)):
            compiled = staged_program(query, micro_db, "hybrid")
            kinds = {
                e.kind
                for _, e, _ in compiled.run(_prefetching()).report.events
                if isinstance(e, RandomAccess) and e.prefetched
            }
            assert len(kinds) >= 2 and all(
                kind.startswith("ht_") for kind in kinds
            ), query.name

    def test_rof_no_prefetch_without_hash_table(self, micro_db):
        compiled = staged_program(mb.q1(40), micro_db, "hybrid")
        plain = compiled.run(Session())
        rof = compiled.run(_prefetching())
        assert not any(
            isinstance(e, RandomAccess) and e.prefetched
            for _, e, _ in rof.report.events
        )
        assert rof.cycles == plain.cycles

    def test_value_masking_multiplies_by_cmp(self, micro_db, engine):
        # every row is evaluated; the 0/1 predicate result masks it
        source = staged_program(
            mb.q1(13), micro_db, agg_mode=PS.VALUE_MASK
        ).source
        assert "ScalarAgg[value_mask]" in source
        kernel = engine.compile(mb.q1(13), "swole").source
        assert "where=mask" in kernel and "[mask]" not in kernel

    def test_access_merging_uses_tmp(self, micro_db):
        source = staged_program(mb.q3(13, "r_x"), micro_db).source
        assert "merged reads: ['r_x']" in source

    def test_key_masking_masks_key_and_drops_throwaway(self, micro_db):
        compiled = staged_program(
            mb.q2(13), micro_db, agg_mode=PS.KEY_MASK
        )
        assert "GroupAgg[key_mask] key[r_c]" in compiled.source
        result = compiled.run(Session())
        assert any(
            isinstance(e, RandomAccess) and e.hot_fraction > 0.5
            for _, e, _ in result.report.events
        )
        assert NULL_KEY not in result.value["keys"]

    def test_bitmap_semijoin_modes(self, micro_db):
        query = mb.q4(10, 20)
        unconditional = staged_program(
            query, micro_db, join_mode=PS.BITMAP_MASK
        ).source
        selective = staged_program(
            query, micro_db, join_mode=PS.BITMAP_OFFSETS
        ).source
        assert "BitmapBuild[mask] -> bitmap[S]" in unconditional
        assert "BitmapBuild[offsets] -> bitmap[S]" in selective

    def test_eager_aggregation_inverts_predicate(self, micro_db):
        compiled = staged_program(
            mb.q5(13), micro_db, groupjoin_mode=P.EAGER
        )
        assert "EagerAggregate key=r_fk (cleanup scan over S)" in (
            compiled.source
        )
        kinds = {
            e.kind
            for _, e, _ in compiled.run(Session()).report.events
            if isinstance(e, RandomAccess)
        }
        assert "ht_delete" in kinds  # the inverted deletion predicate

    def test_build_prefix_covers_join(self, micro_db):
        source = staged_program(mb.q4(10, 20), micro_db, "datacentric").source
        build, probe = source.index("SemiHashBuild"), source.index("HashSemi")
        assert "SemiHashBuild[branch] keys=s_pk -> ht[S]" in source
        assert build < probe

    def test_interpreter_mentions_iterators(self, engine):
        explain = engine.explain(mb.q5(13), "interpreter")
        assert "Volcano per-tuple dispatch on every scan" in explain
        assert "GroupJoinAgg[branch]" in explain


class TestReferenceEngine:
    def test_scalar_no_predicate(self, micro_db):
        query = (
            PlanBuilder.scan("R")
            .group_agg(AggSpec("sum", Col("r_a"), name="s"))
            .build("query")
        )
        out = reference.evaluate(query, micro_db)
        assert out["s"] == int(
            micro_db.table("R")["r_a"].astype(np.int64).sum()
        )

    def test_empty_selection(self, micro_db):
        query = (
            PlanBuilder.scan("R")
            .filter(Col("r_x") < Const(0))
            .group_agg(
                AggSpec("sum", Col("r_a"), name="s"),
                AggSpec("count", name="n"),
            )
            .build("query")
        )
        out = reference.evaluate(query, micro_db)
        assert out == {"s": 0, "n": 0}

    def test_grouped_keys_sorted(self, micro_db):
        out = reference.evaluate(mb.q2(60), micro_db)
        assert (np.diff(out["keys"]) > 0).all()

    def test_semijoin_filters_by_valid_keys(self, micro_db):
        everything = reference.evaluate(mb.q4(100, 100), micro_db)
        filtered = reference.evaluate(mb.q4(100, 10), micro_db)
        assert filtered["sum"] <= everything["sum"]

    def test_unknown_node_is_a_plan_error(self, micro_db):
        # The oracle evaluates the node kinds it knows and refuses the
        # rest rather than guessing at their semantics.
        plan = (
            PlanBuilder.scan("S")
            .exists_join("R", pk_column="s_pk", fk_column="r_fk")
            .group_agg(AggSpec("count", name="n"))
            .build("s-referenced-by-r")
        )
        with pytest.raises(PlanError, match="ExistsJoin"):
            reference.evaluate(plan, micro_db)

    def test_carrying_join_is_a_plan_error(self, micro_db):
        plan = (
            PlanBuilder.scan("R")
            .join("S", fk_column="r_fk", pk_column="s_pk", carry=("s_x",))
            .group_agg(AggSpec("sum", Col("s_x"), name="s"))
            .build("carried")
        )
        with pytest.raises(PlanError, match="carry"):
            reference.evaluate(plan, micro_db)


class TestRofStrategy:
    """ROF is hybrid plus software prefetching of hash-table accesses;
    the prefetching is the ``ExecutionKnobs.ht_prefetch`` knob."""

    def test_prefetch_marked_on_hash_accesses(self, micro_db):
        compiled = staged_program(mb.q2(50), micro_db, "hybrid")
        result = compiled.run(_prefetching())
        ht_events = [
            e
            for _, e, _ in result.report.events
            if isinstance(e, RandomAccess) and e.kind.startswith("ht_")
        ]
        assert ht_events and all(e.prefetched for e in ht_events)

    def test_rof_cheaper_than_hybrid_on_hash_heavy_query(self):
        config = mb.MicrobenchConfig(
            num_rows=100_000, s_rows=1_000, c_cardinality=30_000
        )
        db = mb.generate(config)
        from repro.bench.microbench import scaled_machine

        machine = scaled_machine(config)
        compiled = staged_program(mb.q2(80), db, "hybrid", machine=machine)
        hybrid = compiled.run(Session(machine=machine))
        rof = compiled.run(_prefetching(machine=machine))
        assert rof.cycles < hybrid.cycles  # prefetching hides ht latency

    def test_rof_same_answers(self, micro_db):
        for query in (mb.q1(40), mb.q4(40, 60), mb.q5(40)):
            compiled = staged_program(query, micro_db, "hybrid")
            a = compiled.run(Session())
            b = compiled.run(_prefetching())
            assert results_equal(a, b)


class TestBenchCli:
    def test_fig2_runs(self, capsys):
        from repro.bench.__main__ import run_figure

        run_figure("fig2", rows=1000, sf=0.002)
        out = capsys.readouterr().out
        assert "Value Masking" in out

    def test_unknown_figure_rejected(self):
        from repro.bench.__main__ import run_figure

        with pytest.raises(SystemExit):
            run_figure("fig99", rows=1000, sf=0.002)


class TestTpchReport:
    def test_report_table_and_row_lookup(self, tpch_db, tpch_config):
        from repro.bench.tpch import run_fig6

        report = run_fig6(tpch_config, queries=("Q1", "Q6"), db=tpch_db)
        text = report.format_table()
        assert "Q1" in text and "Q6" in text and "sw/hy" in text
        assert report.row("Q1").swole_speedup > 0
        with pytest.raises(KeyError):
            report.row("Q2")
