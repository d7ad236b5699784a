"""Tests for logical plans and statistics sampling (repro.plan.logical)."""

import pytest

from repro.datagen import microbench as mb
from repro.errors import PlanError
from repro.plan.expressions import Col
from repro.plan.logical import AggSpec, Query, sample_stats


class TestAggSpec:
    def test_sum_requires_expression(self):
        with pytest.raises(PlanError):
            AggSpec("sum", None)

    def test_count_without_expression(self):
        assert AggSpec("count", name="n").func == "count"

    def test_unknown_function_rejected(self):
        with pytest.raises(PlanError):
            AggSpec("median", Col("a"))


class TestQuery:
    def test_requires_aggregates(self):
        with pytest.raises(PlanError):
            Query(table="R", aggregates=())

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(PlanError):
            Query(
                table="R",
                aggregates=(
                    AggSpec("sum", Col("a"), name="s"),
                    AggSpec("count", name="s"),
                ),
            )

    def test_groupjoin_detection(self):
        query = mb.q5(50)
        assert query.is_groupjoin
        assert not query.is_semijoin

    def test_semijoin_detection(self):
        query = mb.q4(10, 20)
        assert query.is_semijoin
        assert not query.is_groupjoin

    def test_main_columns(self):
        query = mb.q1(13)
        assert set(query.main_columns()) == {"r_a", "r_b", "r_x", "r_y"}

    def test_reused_columns_detects_merging_opportunity(self):
        assert mb.q3(30, "r_x").reused_columns() == ("r_x",)
        assert mb.q1(30).reused_columns() == ()


class TestSampleStats:
    def test_selectivity_close_to_truth(self, micro_db):
        query = mb.q1(30)
        stats = sample_stats(query, micro_db.all_data())
        data = micro_db.data("R")
        truth = float(query.predicate.evaluate(data).mean())
        assert stats.selectivity == pytest.approx(truth, abs=0.03)

    def test_group_cardinality_estimate(self, micro_db, micro_config):
        stats = sample_stats(mb.q2(30), micro_db.all_data())
        assert stats.group_cardinality == pytest.approx(
            micro_config.c_cardinality, rel=0.2
        )

    def test_build_side_stats(self, micro_db, micro_config):
        stats = sample_stats(mb.q4(10, 40), micro_db.all_data())
        assert stats.build_rows == micro_config.s_rows
        assert stats.build_selectivity == pytest.approx(0.4, abs=0.05)

    def test_no_predicate_is_full_selectivity(self, micro_db):
        query = Query(
            table="R",
            aggregates=(AggSpec("sum", Col("r_a"), name="sum"),),
        )
        stats = sample_stats(query, micro_db.all_data())
        assert stats.selectivity == 1.0

    def test_agg_ops_collected(self, micro_db):
        stats = sample_stats(mb.q1(10, "div"), micro_db.all_data())
        assert "div" in stats.agg_ops

    def test_widths_reflect_storage(self, micro_db):
        stats = sample_stats(mb.q1(10), micro_db.all_data())
        assert stats.column_widths["r_a"] == 1  # int8
        assert stats.column_widths["r_c"] == 4  # int32
