"""Tests for aggregate specs, the aggregation root's checks, the
microbench query shapes, and the statistics the passes sample for
their operator trees."""

import pytest

from repro.datagen import microbench as mb
from repro.errors import PlanError
from repro.engine.machine import PAPER_MACHINE
from repro.plan.expressions import Col
from repro.plan.builder import PlanBuilder
from repro.plan.ops import (
    AggSpec,
    GroupByAgg,
    Scan,
    is_groupjoin,
    spine_joins,
)
from repro.plan.passes import run_passes


def sampled_stats(plan, db):
    """The statistics the pass pipeline priced ``plan`` with."""
    _, decisions, _ = run_passes(plan, db, PAPER_MACHINE, "swole")
    return decisions.estimated_stats


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
            GroupByAgg(Scan("R"), aggregates=())

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(PlanError):
            GroupByAgg(
                Scan("R"),
                aggregates=(
                    AggSpec("sum", Col("a"), name="s"),
                    AggSpec("count", name="s"),
                ),
            )

    def test_groupjoin_detection(self):
        # µQ5 groups by its join's FK column: a groupjoin.
        root = mb.q5(50).root
        assert is_groupjoin(root)

    def test_semijoin_detection(self):
        # µQ4 carries nothing from S and groups by nothing: a semijoin.
        root = mb.q4(10, 20).root
        (join,) = spine_joins(root.child)
        assert join.is_semijoin
        assert not is_groupjoin(root)


class TestSampleStats:
    def test_selectivity_close_to_truth(self, micro_db):
        query = mb.q1(30)
        stats = sampled_stats(query, micro_db)
        data = micro_db.data("R")
        truth = float(query.root.child.predicate.evaluate(data).mean())
        assert stats["local_selectivity"] == pytest.approx(truth, abs=0.03)

    def test_group_cardinality_estimate(self, micro_db, micro_config):
        stats = sampled_stats(mb.q2(30), micro_db)
        assert stats["group_cardinality"] == pytest.approx(
            micro_config.c_cardinality, rel=0.2
        )

    def test_build_side_stats(self, micro_db):
        stats = sampled_stats(mb.q4(10, 40), micro_db)
        assert stats["match_fraction"] == pytest.approx(0.4, abs=0.05)

    def test_no_predicate_is_full_selectivity(self, micro_db):
        query = (
            PlanBuilder.scan("R")
            .group_agg(AggSpec("sum", Col("r_a"), name="sum"))
            .build("query")
        )
        assert sampled_stats(query, micro_db)["local_selectivity"] == 1.0
