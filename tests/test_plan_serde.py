"""Structural plan serde: JSON round trips preserve fingerprints."""

import json

import pytest

from repro.errors import PlanError
from repro.plan.expressions import (
    And,
    Arith,
    Case,
    Col,
    Const,
    DictEq,
    DictIn,
    DictPrefix,
    InSet,
    Or,
    StrMatch,
)
from repro.plan.ops import AggSpec, LogicalPlan, plan_fingerprint
from repro.plan.serde import (
    expr_from_dict,
    expr_to_dict,
    plan_from_dict,
    plan_from_wire,
    plan_to_dict,
    plan_to_wire,
)
from repro.tpch import PIPELINE_QUERIES, logical_plan


class TestPlanRoundTrips:
    @pytest.mark.parametrize("name", PIPELINE_QUERIES)
    def test_tpch_plans_survive_json(self, name):
        plan = logical_plan(name)
        payload = json.loads(json.dumps(plan_to_dict(plan)))
        back = plan_from_dict(payload)
        assert back == plan
        assert plan_fingerprint(back) == plan_fingerprint(plan)

    def test_wire_envelope_carries_fingerprint(self):
        plan = logical_plan("Q6")
        wire = plan_to_wire(plan)
        assert wire["fingerprint"] == plan_fingerprint(plan)
        assert plan_from_wire(json.loads(json.dumps(wire))) == plan

    def test_envelope_without_fingerprint_still_decodes(self):
        plan = logical_plan("Q6")
        assert plan_from_wire({"plan": plan_to_dict(plan)}) == plan


class TestExpressionRoundTrips:
    @pytest.mark.parametrize(
        "expr",
        [
            Col("a"),
            Const(7),
            Col("a") < Const(3),
            And([Col("a") < 3, Col("b").eq(1)]),
            Or([Col("a") < 3, Col("b") > 9]),
            Arith("div", Col("a"), Const(2)),
            Case([(Col("a") < 3, Const(1))], Const(0)),
            InSet(Col("a"), (1, 2, 3)),
            DictEq("c", "PROMO"),
            DictPrefix("c", "PROMO"),
            DictIn("c", ("AIR", "REG AIR")),
            StrMatch("c", "%special%", "c_flag", negated=True),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_round_trip(self, expr):
        payload = json.loads(json.dumps(expr_to_dict(expr)))
        assert expr_from_dict(payload) == expr


class TestRejections:
    def test_unknown_node_type(self):
        with pytest.raises(PlanError, match="unknown plan node"):
            plan_from_dict({"name": "x", "root": {"t": "window"}})

    def test_unknown_expression_type(self):
        with pytest.raises(PlanError, match="unknown expression"):
            expr_from_dict({"t": "regex"})

    def test_missing_type_tag(self):
        with pytest.raises(PlanError, match="type tag"):
            expr_from_dict({"name": "a"})

    def test_missing_field_named(self):
        with pytest.raises(PlanError, match="missing field"):
            expr_from_dict({"t": "cmp", "op": "<"})

    def test_missing_root(self):
        with pytest.raises(PlanError, match="root"):
            plan_from_dict({"name": "x"})

    def test_fingerprint_mismatch_rejected(self):
        wire = plan_to_wire(logical_plan("Q6"))
        wire["fingerprint"] = "ir:0000000000000000"
        with pytest.raises(PlanError, match="does not match"):
            plan_from_wire(wire)

    def test_malformed_payload_wrapped_as_plan_error(self):
        with pytest.raises(PlanError, match="malformed"):
            plan_from_dict(
                {
                    "name": "x",
                    "root": {
                        "t": "project",
                        "child": {"t": "scan", "table": "R"},
                        "outputs": [["only-name"]],
                    },
                }
            )

    def test_unserialisable_expression(self):
        from repro.plan.expressions import Expr

        class Weird(Expr):
            pass

        with pytest.raises(PlanError, match="cannot serialise"):
            expr_to_dict(Weird())


class TestAggregates:
    def test_count_without_expression(self):
        plan = LogicalPlan(
            name="counts",
            root=logical_plan("Q1").root,
        )
        payload = plan_to_dict(plan)
        assert plan_from_dict(payload) == plan

    def test_agg_spec_fields_preserved(self):
        from repro.plan.serde import _agg_from_dict, _agg_to_dict

        agg = AggSpec("sum", Col("x") * Const(2), name="revenue")
        assert _agg_from_dict(_agg_to_dict(agg)) == agg
        count = AggSpec("count", None, name="n")
        assert _agg_from_dict(_agg_to_dict(count)) == count
