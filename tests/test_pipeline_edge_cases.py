"""Edge cases of the new pipeline kernels (Q4/Q5/Q13/Q19 vocabulary).

Every test builds a degenerate variant of one of the new plan shapes
with :class:`~repro.plan.builder.PlanBuilder` and pins the answer under
all four strategies against a direct NumPy computation: an anti-join
whose build side filters to nothing, an outer groupjoin where every
build row is unmatched (Q13's zero-order bucket taken to the extreme),
a disjunctive join with one empty-bitmap disjunct, and morsel-parallel
vs serial byte-identity for the plans exercising each new physical op.
"""

import numpy as np
import pytest

from repro.codegen.pipeline import compile_pipeline
from repro.engine import Engine, ExecutionKnobs, Session, plan_key
from repro.engine.program import results_equal
from repro.plan.builder import PlanBuilder, scan
from repro.plan.expressions import And, Col, Const, DictEq
from repro.plan.ops import AggSpec
from repro.tpch import STRATEGIES, logical_plan

#: A predicate no row satisfies (all stored columns are non-negative).
IMPOSSIBLE = Col("l_commitdate") < Const(-1)


def _run_all(plan, db):
    """The plan's result under every strategy, asserting byte-identity."""
    results = {
        strategy: compile_pipeline(
            plan, db, plan_key(plan, strategy)
        ).run(Session())
        for strategy in STRATEGIES
    }
    baseline = results["interpreter"]
    for strategy, result in results.items():
        assert results_equal(result, baseline), strategy
    return baseline


class TestEmptyAntiJoinBuild:
    """Q4's shape with a build side that filters to zero lineitems."""

    def _plan(self, anti):
        kind = "anti" if anti else "exists"
        return (
            PlanBuilder.scan("orders")
            .exists_join(
                scan("lineitem").filter(IMPOSSIBLE),
                pk_column="o_orderkey",
                fk_column="l_orderkey",
                anti=anti,
            )
            .group_agg(
                AggSpec("count", None, name="order_count"),
                key="o_orderpriority",
            )
            .build(f"q4-empty-build-{kind}")
        )

    def test_anti_join_keeps_every_probe_row(self, tpch_db):
        result = _run_all(self._plan(anti=True), tpch_db)
        priorities = tpch_db.table("orders")["o_orderpriority"]
        keys, counts = np.unique(priorities, return_counts=True)
        assert np.array_equal(np.asarray(result.value["keys"]), keys)
        assert np.array_equal(
            np.asarray(result.value["aggs"])[:, 0], counts
        )

    def test_exists_join_keeps_nothing(self, tpch_db):
        result = _run_all(self._plan(anti=False), tpch_db)
        assert len(np.asarray(result.value["keys"])) == 0


class TestAllUnmatchedOuterGroupJoin:
    """Q13's shape with an empty probe: every customer counts zero."""

    def _plan(self):
        return (
            PlanBuilder.scan("orders")
            .filter(Col("o_orderdate") < Const(-1))
            .outer_group_join(
                "customer",
                fk_column="o_custkey",
                pk_column="c_custkey",
                count_name="c_count",
            )
            .group_agg(
                AggSpec("count", None, name="custdist"), key="c_count"
            )
            .build("q13-all-unmatched")
        )

    def test_single_zero_bucket_holds_all_customers(self, tpch_db):
        result = _run_all(self._plan(), tpch_db)
        keys = np.asarray(result.value["keys"])
        aggs = np.asarray(result.value["aggs"])
        assert np.array_equal(keys, [0])
        assert aggs[0, 0] == tpch_db.table("customer").num_rows


class TestEmptyDisjunctBitmap:
    """Q19's shape where one disjunct's build predicate matches no part."""

    REVENUE = Col("l_extendedprice") * (Const(100) - Col("l_discount"))

    def _plan(self):
        disjuncts = (
            (
                And(
                    [
                        DictEq("p_brand", "Brand#12"),
                        And([Col("p_size") >= 1, Col("p_size") <= 5]),
                    ]
                ),
                And([Col("l_quantity") >= 1, Col("l_quantity") <= 11]),
            ),
            # p_size tops out far below 999: this bitmap is all zeros.
            (
                And([Col("p_size") >= 999]),
                And([Col("l_quantity") >= 0]),
            ),
        )
        return (
            PlanBuilder.scan("lineitem")
            .disjunct_join(
                "part",
                fk_column="l_partkey",
                pk_column="p_partkey",
                disjuncts=disjuncts,
            )
            .group_agg(AggSpec("sum", self.REVENUE, name="revenue"))
            .build("q19-empty-disjunct")
        )

    def test_empty_disjunct_contributes_nothing(self, tpch_db):
        result = _run_all(self._plan(), tpch_db)

        part = tpch_db.table("part")
        line = tpch_db.table("lineitem")
        brand = part.column("p_brand").code_for("Brand#12")
        size = part["p_size"]
        build_hit = (part["p_brand"] == brand) & (size >= 1) & (size <= 5)
        assert not ((size >= 999).any()), "fixture grew; pick a new bound"

        offsets = tpch_db.fk_index("lineitem", "l_partkey").offsets
        qty = line["l_quantity"]
        hit = build_hit[offsets] & (qty >= 1) & (qty <= 11)
        expected = int(
            np.sum(
                line["l_extendedprice"][hit].astype(np.int64)
                * (100 - line["l_discount"][hit].astype(np.int64))
            )
        )
        assert int(result.value["revenue"]) == expected


class TestMorselParallelByteIdentity:
    """Parallel and serial runs give the same answers on every new-op
    plan.

    Q4 exercises ExistsBitmapProbe/HashSemiProbe, Q5 the carried-column
    join chain (HashJoinCarryProbe, CarriedGather), Q19 the disjunctive
    probes (DisjunctBitmapProbe/DisjunctIndexProbe); Q13's final
    pipeline is deliberately serial-only (the outer groupjoin mutates
    shared build state) and pins the serial fallback.
    """

    @pytest.mark.parametrize("name", ("Q4", "Q5", "Q13", "Q19"))
    @pytest.mark.parametrize("strategy", ("datacentric", "hybrid", "swole"))
    def test_parallel_matches_serial(self, tpch_db, name, strategy):
        plan = logical_plan(name)
        with Engine(
            db=tpch_db,
            workers=4,
            knobs=ExecutionKnobs(morsel_rows=1500),
        ) as engine:
            serial = engine.execute(plan, strategy, workers=1)
            parallel = engine.execute(plan, strategy, workers=4)
            assert results_equal(serial, parallel), (name, strategy)

    def test_new_query_parallel_plans_fan_out(self, tpch_db):
        # The point of the splittable-op whitelist: the lineitem-driven
        # plans really run multi-morsel (not just fall back to one
        # worker). Q4's final pipeline scans orders — 3,000 rows at
        # this scale, under the executor's minimum morsel size — so it
        # is covered by the byte-identity matrix above instead.
        with Engine(
            db=tpch_db,
            workers=4,
            knobs=ExecutionKnobs(morsel_rows=1500),
        ) as engine:
            for name in ("Q5", "Q19"):
                result = engine.execute(logical_plan(name), "swole", workers=4)
                assert result.metrics.parallel, name
                assert result.metrics.morsels > 1, name
