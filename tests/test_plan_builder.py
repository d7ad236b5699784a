"""PlanBuilder: fluent construction, validation, and API equivalences."""

import warnings

import pytest

from repro import Engine, PlanBuilder
from repro.datagen import microbench as mb
from repro.engine.plan_cache import query_fingerprint
from repro.engine.program import results_equal
from repro.errors import PlanError, ReproError
from repro.plan.builder import scan
from repro.plan.expressions import And, Col
from repro.plan.logical import AggSpec
from repro.plan.ops import (
    ExistsJoin,
    Filter,
    GroupByAgg,
    Join,
    LogicalPlan,
    Scan,
    plan_fingerprint,
)
from repro.tpch import logical_plan


def _sum_ab():
    return AggSpec("sum", Col("r_a") * Col("r_b"), name="sum")


class TestConstruction:
    def test_matches_hand_built_tree(self):
        built = (
            PlanBuilder.scan("R")
            .filter(Col("r_x") < 13)
            .group_agg(_sum_ab())
            .build("q")
        )
        manual = LogicalPlan(
            name="q",
            root=GroupByAgg(
                child=Filter(Scan("R"), Col("r_x") < 13),
                aggregates=(_sum_ab(),),
            ),
        )
        assert built == manual
        assert plan_fingerprint(built) == plan_fingerprint(manual)

    def test_multiple_filter_args_become_conjuncts(self):
        built = (
            PlanBuilder.scan("R")
            .filter(Col("r_x") < 13, Col("r_y").eq(1))
            .group_agg(_sum_ab())
            .build("q")
        )
        predicate = built.root.child.predicate
        assert predicate == And([Col("r_x") < 13, Col("r_y").eq(1)])

    def test_string_build_side_becomes_scan(self):
        built = (
            PlanBuilder.scan("R")
            .join("S", fk_column="r_fk", pk_column="s_pk")
            .group_agg(_sum_ab())
            .build("q")
        )
        join = built.root.child
        assert isinstance(join, Join)
        assert join.build == Scan("S")
        assert join.is_semijoin

    def test_builder_build_side_passes_its_node(self):
        build_side = scan("S").filter(Col("s_x") < 50)
        built = (
            PlanBuilder.scan("R")
            .exists_join(build_side, pk_column="s_pk", fk_column="r_fk")
            .group_agg(_sum_ab())
            .build("q")
        )
        node = built.root.child
        assert isinstance(node, ExistsJoin)
        assert node.build == build_side.node
        assert not node.anti

    def test_anti_join_sugar(self):
        built = (
            PlanBuilder.scan("R")
            .anti_join("S", pk_column="s_pk", fk_column="r_fk")
            .group_agg(_sum_ab())
            .build("q")
        )
        assert built.root.child.anti

    def test_group_key_string_sugar(self):
        built = (
            PlanBuilder.scan("R").group_agg(_sum_ab(), key="r_c").build("q")
        )
        assert built.root.key == Col("r_c")
        assert built.root.key_name == "r_c"

    def test_group_key_col_names_itself(self):
        built = (
            PlanBuilder.scan("R")
            .group_agg(_sum_ab(), key=Col("r_c"))
            .build("q")
        )
        assert built.root.key_name == "r_c"

    def test_builders_are_immutable_prefixes_shareable(self):
        base = scan("R").filter(Col("r_x") < 13)
        one = base.group_agg(_sum_ab()).build("one")
        two = base.group_agg(_sum_ab(), key="r_c").build("two")
        assert one.root.key is None
        assert two.root.key == Col("r_c")
        assert one.root.child is two.root.child

    def test_describe_renders_partial_tree(self):
        text = scan("R").filter(Col("r_x") < 13).describe()
        assert "Scan R" in text
        assert "Filter" in text


class TestValidation:
    def test_build_requires_group_agg_root(self):
        with pytest.raises(PlanError, match="GroupByAgg"):
            scan("R").filter(Col("r_x") < 13).build("q")

    def test_filter_needs_predicates(self):
        with pytest.raises(PlanError, match="at least one"):
            scan("R").filter()

    def test_filter_rejects_non_expressions(self):
        with pytest.raises(PlanError, match="expressions"):
            scan("R").filter("r_x < 13")

    def test_bad_build_side_rejected(self):
        with pytest.raises(PlanError, match="build side"):
            scan("R").join(42, fk_column="r_fk", pk_column="s_pk")

    def test_bad_group_key_rejected(self):
        with pytest.raises(PlanError, match="group key"):
            scan("R").group_agg(_sum_ab(), key=42)

    def test_wraps_only_plan_nodes(self):
        with pytest.raises(PlanError, match="plan nodes"):
            PlanBuilder("R")


class TestEngineIntegration:
    def test_builder_plan_shares_cache_slot_with_legacy_query(self):
        # The builder spelling of uQ1 is structurally identical to the
        # legacy Query lifted through from_query, so both key the plan
        # cache by the same IR fingerprint.
        query = mb.q1(30)
        built = (
            PlanBuilder.scan("R")
            .filter(query.predicate)
            .group_agg(*query.aggregates)
            .build(query.name)
        )
        assert plan_fingerprint(built) == query_fingerprint(query)

    def test_builder_plan_executes_identically(self, micro_db):
        built = (
            PlanBuilder.scan("R")
            .filter(Col("r_x") < 30)
            .join(
                scan("S").filter(Col("s_x") < 50),
                fk_column="r_fk",
                pk_column="s_pk",
            )
            .group_agg(_sum_ab())
            .build("uQ4-by-builder")
        )
        with Engine(db=micro_db) as engine:
            swole = engine.execute(built, "swole")
            hybrid = engine.execute(built, "hybrid")
            assert results_equal(swole, hybrid)
            assert swole.scalar("sum") == engine.execute(
                mb.q4(30, 50), "swole"
            ).scalar("sum")


class TestNameDeprecation:
    def test_name_string_path_raises_with_replacement(self, tpch_db):
        # Deprecated since v1.3.0, removed in v2.0.0.
        with Engine(db=tpch_db) as engine:
            with pytest.raises(ReproError, match="PlanBuilder"):
                engine.compile("Q6", "hybrid")

    def test_plan_path_stays_silent(self, tpch_db):
        with Engine(db=tpch_db) as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                engine.compile(logical_plan("Q6"), "hybrid")
