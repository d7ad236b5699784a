"""Structural JSON serde for logical plans — the wire form of the IR.

The query service accepts operator trees over the wire as plain JSON:
every expression and plan node maps to a dict tagged with ``"t"``, and
the envelope pairs the structural payload with the plan's IR
fingerprint so the receiver can verify the tree decoded faithfully::

    {"plan": {"name": "q6", "root": {"t": "group_by_agg", ...}},
     "fingerprint": "ir:4be1..."}

Encoding and decoding are exact inverses over the frozen dataclasses of
:mod:`repro.plan.expressions` / :mod:`repro.plan.ops`, so a round trip
preserves structural equality — and therefore the plan-cache key
(:func:`~repro.plan.ops.plan_fingerprint`). A decoded plan that hashes
differently from the envelope's fingerprint is rejected.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..errors import PlanError
from .expressions import (
    And,
    Arith,
    Case,
    Col,
    Compare,
    Const,
    DictEq,
    DictIn,
    DictPrefix,
    Expr,
    InSet,
    Or,
    StrMatch,
)
from .ops import (
    AggSpec,
    DisjunctJoin,
    ExistsJoin,
    Filter,
    GroupByAgg,
    Join,
    LogicalPlan,
    OuterGroupJoin,
    PlanNode,
    Project,
    Scan,
    plan_fingerprint,
)

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def expr_to_dict(expr: Expr) -> dict:
    """One expression node as a ``"t"``-tagged JSON-safe dict."""
    if isinstance(expr, Col):
        return {"t": "col", "name": expr.name}
    if isinstance(expr, Const):
        return {"t": "const", "value": expr.value}
    if isinstance(expr, Compare):
        return {
            "t": "cmp",
            "op": expr.op,
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    if isinstance(expr, (And, Or)):
        return {
            "t": "and" if isinstance(expr, And) else "or",
            "terms": [expr_to_dict(term) for term in expr.terms],
        }
    if isinstance(expr, Arith):
        return {
            "t": "arith",
            "op": expr.op,
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    if isinstance(expr, Case):
        return {
            "t": "case",
            "branches": [
                [expr_to_dict(cond), expr_to_dict(value)]
                for cond, value in expr.branches
            ],
            "default": expr_to_dict(expr.default),
        }
    if isinstance(expr, InSet):
        return {
            "t": "in_set",
            "child": expr_to_dict(expr.child),
            "values": list(expr.values),
        }
    if isinstance(expr, DictEq):
        return {"t": "dict_eq", "column": expr.column, "value": expr.value}
    if isinstance(expr, DictPrefix):
        return {
            "t": "dict_prefix",
            "column": expr.column,
            "prefix": expr.prefix,
        }
    if isinstance(expr, DictIn):
        return {
            "t": "dict_in",
            "column": expr.column,
            "values": list(expr.values),
        }
    if isinstance(expr, StrMatch):
        return {
            "t": "str_match",
            "column": expr.column,
            "pattern": expr.pattern,
            "flag_column": expr.flag_column,
            "negated": expr.negated,
        }
    raise PlanError(f"cannot serialise expression {type(expr).__name__}")


def _tagged(payload: Any, kind: str) -> dict:
    if not isinstance(payload, dict):
        raise PlanError(f"a {kind} payload must be an object, got {payload!r}")
    tag = payload.get("t")
    if not isinstance(tag, str):
        raise PlanError(f"a {kind} payload needs a 't' type tag")
    return payload


def _field(payload: dict, name: str) -> Any:
    try:
        return payload[name]
    except KeyError as exc:
        raise PlanError(
            f"{payload.get('t')!r} payload is missing field {name!r}"
        ) from exc


_EXPR_DECODERS: Dict[str, Callable[[dict], Expr]] = {
    "col": lambda d: Col(str(_field(d, "name"))),
    "const": lambda d: Const(int(_field(d, "value"))),
    "cmp": lambda d: Compare(
        expr_from_dict(_field(d, "left")),
        str(_field(d, "op")),
        expr_from_dict(_field(d, "right")),
    ),
    "and": lambda d: And(
        [expr_from_dict(term) for term in _field(d, "terms")]
    ),
    "or": lambda d: Or(
        [expr_from_dict(term) for term in _field(d, "terms")]
    ),
    "arith": lambda d: Arith(
        str(_field(d, "op")),
        expr_from_dict(_field(d, "left")),
        expr_from_dict(_field(d, "right")),
    ),
    "case": lambda d: Case(
        [
            (expr_from_dict(cond), expr_from_dict(value))
            for cond, value in _field(d, "branches")
        ],
        expr_from_dict(_field(d, "default")),
    ),
    "in_set": lambda d: InSet(
        expr_from_dict(_field(d, "child")), _field(d, "values")
    ),
    "dict_eq": lambda d: DictEq(
        str(_field(d, "column")), str(_field(d, "value"))
    ),
    "dict_prefix": lambda d: DictPrefix(
        str(_field(d, "column")), str(_field(d, "prefix"))
    ),
    "dict_in": lambda d: DictIn(
        str(_field(d, "column")), _field(d, "values")
    ),
    "str_match": lambda d: StrMatch(
        column=str(_field(d, "column")),
        pattern=str(_field(d, "pattern")),
        flag_column=str(_field(d, "flag_column")),
        negated=bool(d.get("negated", False)),
    ),
}


def expr_from_dict(payload: Any) -> Expr:
    """Decode one expression payload; raises ``PlanError`` when malformed."""
    payload = _tagged(payload, "expression")
    decoder = _EXPR_DECODERS.get(payload["t"])
    if decoder is None:
        raise PlanError(
            f"unknown expression type {payload['t']!r}; known: "
            f"{sorted(_EXPR_DECODERS)}"
        )
    try:
        return decoder(payload)
    except (TypeError, ValueError) as exc:
        raise PlanError(
            f"malformed {payload['t']!r} payload: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


def _agg_to_dict(agg: AggSpec) -> dict:
    payload: dict = {"func": agg.func, "name": agg.name}
    if agg.expr is not None:
        payload["expr"] = expr_to_dict(agg.expr)
    return payload


def _agg_from_dict(payload: Any) -> AggSpec:
    if not isinstance(payload, dict):
        raise PlanError(f"an aggregate payload must be an object: {payload!r}")
    expr = payload.get("expr")
    return AggSpec(
        func=str(_field(payload, "func")),
        expr=expr_from_dict(expr) if expr is not None else None,
        name=str(_field(payload, "name")),
    )


def node_to_dict(node: PlanNode) -> dict:
    """One plan node (and its subtree) as a tagged JSON-safe dict."""
    if isinstance(node, Scan):
        return {"t": "scan", "table": node.table}
    if isinstance(node, Filter):
        return {
            "t": "filter",
            "child": node_to_dict(node.child),
            "predicate": expr_to_dict(node.predicate),
        }
    if isinstance(node, Project):
        return {
            "t": "project",
            "child": node_to_dict(node.child),
            "outputs": [
                [name, expr_to_dict(expr)] for name, expr in node.outputs
            ],
        }
    if isinstance(node, Join):
        return {
            "t": "join",
            "probe": node_to_dict(node.probe),
            "build": node_to_dict(node.build),
            "fk_column": node.fk_column,
            "pk_column": node.pk_column,
            "carry": list(node.carry),
        }
    if isinstance(node, ExistsJoin):
        return {
            "t": "exists_join",
            "probe": node_to_dict(node.probe),
            "build": node_to_dict(node.build),
            "pk_column": node.pk_column,
            "fk_column": node.fk_column,
            "anti": node.anti,
        }
    if isinstance(node, OuterGroupJoin):
        return {
            "t": "outer_group_join",
            "probe": node_to_dict(node.probe),
            "build": node_to_dict(node.build),
            "fk_column": node.fk_column,
            "pk_column": node.pk_column,
            "count_name": node.count_name,
        }
    if isinstance(node, DisjunctJoin):
        return {
            "t": "disjunct_join",
            "probe": node_to_dict(node.probe),
            "build": node_to_dict(node.build),
            "fk_column": node.fk_column,
            "pk_column": node.pk_column,
            "disjuncts": [
                [expr_to_dict(bp), expr_to_dict(pp)]
                for bp, pp in node.disjuncts
            ],
        }
    if isinstance(node, GroupByAgg):
        payload = {
            "t": "group_by_agg",
            "child": node_to_dict(node.child),
            "aggregates": [_agg_to_dict(agg) for agg in node.aggregates],
            "key_name": node.key_name,
        }
        if node.key is not None:
            payload["key"] = expr_to_dict(node.key)
        return payload
    raise PlanError(f"cannot serialise plan node {type(node).__name__}")


_NODE_DECODERS: Dict[str, Callable[[dict], PlanNode]] = {
    "scan": lambda d: Scan(str(_field(d, "table"))),
    "filter": lambda d: Filter(
        node_from_dict(_field(d, "child")),
        expr_from_dict(_field(d, "predicate")),
    ),
    "project": lambda d: Project(
        node_from_dict(_field(d, "child")),
        [
            (str(name), expr_from_dict(expr))
            for name, expr in _field(d, "outputs")
        ],
    ),
    "join": lambda d: Join(
        probe=node_from_dict(_field(d, "probe")),
        build=node_from_dict(_field(d, "build")),
        fk_column=str(_field(d, "fk_column")),
        pk_column=str(_field(d, "pk_column")),
        carry=tuple(str(c) for c in d.get("carry", ())),
    ),
    "exists_join": lambda d: ExistsJoin(
        probe=node_from_dict(_field(d, "probe")),
        build=node_from_dict(_field(d, "build")),
        pk_column=str(_field(d, "pk_column")),
        fk_column=str(_field(d, "fk_column")),
        anti=bool(d.get("anti", False)),
    ),
    "outer_group_join": lambda d: OuterGroupJoin(
        probe=node_from_dict(_field(d, "probe")),
        build=node_from_dict(_field(d, "build")),
        fk_column=str(_field(d, "fk_column")),
        pk_column=str(_field(d, "pk_column")),
        count_name=str(d.get("count_name", "count")),
    ),
    "disjunct_join": lambda d: DisjunctJoin(
        probe=node_from_dict(_field(d, "probe")),
        build=node_from_dict(_field(d, "build")),
        fk_column=str(_field(d, "fk_column")),
        pk_column=str(_field(d, "pk_column")),
        disjuncts=tuple(
            (expr_from_dict(bp), expr_from_dict(pp))
            for bp, pp in _field(d, "disjuncts")
        ),
    ),
    "group_by_agg": lambda d: GroupByAgg(
        child=node_from_dict(_field(d, "child")),
        aggregates=tuple(
            _agg_from_dict(agg) for agg in _field(d, "aggregates")
        ),
        key=(
            expr_from_dict(d["key"]) if d.get("key") is not None else None
        ),
        key_name=str(d.get("key_name", "key")),
    ),
}


def node_from_dict(payload: Any) -> PlanNode:
    """Decode one plan-node payload; raises ``PlanError`` when malformed."""
    payload = _tagged(payload, "plan node")
    decoder = _NODE_DECODERS.get(payload["t"])
    if decoder is None:
        raise PlanError(
            f"unknown plan node type {payload['t']!r}; known: "
            f"{sorted(_NODE_DECODERS)}"
        )
    try:
        return decoder(payload)
    except (TypeError, ValueError) as exc:
        raise PlanError(
            f"malformed {payload['t']!r} payload: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Plans and the wire envelope
# ---------------------------------------------------------------------------


def plan_to_dict(plan: LogicalPlan) -> dict:
    """A :class:`LogicalPlan` as a JSON-safe structural dict."""
    return {"name": plan.name, "root": node_to_dict(plan.root)}


def plan_from_dict(payload: Any) -> LogicalPlan:
    """Inverse of :func:`plan_to_dict`."""
    if not isinstance(payload, dict):
        raise PlanError("a plan payload must be an object")
    return LogicalPlan(
        name=str(payload.get("name", "plan")),
        root=node_from_dict(_field(payload, "root")),
    )


def plan_to_wire(plan: LogicalPlan) -> dict:
    """The wire envelope: structural JSON plus the IR fingerprint."""
    return {
        "plan": plan_to_dict(plan),
        "fingerprint": plan_fingerprint(plan),
    }


def plan_from_wire(wire: Any) -> LogicalPlan:
    """Decode a wire envelope, verifying its fingerprint when present."""
    if not isinstance(wire, dict):
        raise PlanError("a plan envelope must be an object")
    plan = plan_from_dict(_field(wire, "plan"))
    claimed = wire.get("fingerprint")
    if claimed is not None and claimed != plan_fingerprint(plan):
        raise PlanError(
            f"plan envelope fingerprint {claimed!r} does not match the "
            f"decoded tree ({plan_fingerprint(plan)}); the payload was "
            "altered or produced by an incompatible serde"
        )
    return plan


__all__ = [
    "expr_from_dict",
    "expr_to_dict",
    "node_from_dict",
    "node_to_dict",
    "plan_from_dict",
    "plan_from_wire",
    "plan_to_dict",
    "plan_to_wire",
]
