"""Tests for the legacy ``Query`` vocabulary (repro.plan.logical) and
the statistics the passes sample for its operator trees."""

import pytest

from repro.datagen import microbench as mb
from repro.errors import PlanError
from repro.engine.machine import PAPER_MACHINE
from repro.plan.expressions import Col
from repro.plan.logical import AggSpec, Query
from repro.plan.ops import as_plan
from repro.plan.passes import run_passes


def sampled_stats(query, db):
    """The statistics the pass pipeline priced ``query`` with."""
    _, decisions, _ = run_passes(as_plan(query), db, PAPER_MACHINE, "swole")
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


class TestSampleStats:
    def test_selectivity_close_to_truth(self, micro_db):
        query = mb.q1(30)
        stats = sampled_stats(query, micro_db)
        data = micro_db.data("R")
        truth = float(query.predicate.evaluate(data).mean())
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
        query = Query(
            table="R",
            aggregates=(AggSpec("sum", Col("r_a"), name="sum"),),
        )
        assert sampled_stats(query, micro_db)["local_selectivity"] == 1.0
