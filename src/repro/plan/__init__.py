"""Plan IR: expressions, operator trees, physical plans.

Two layers:

* :mod:`~repro.plan.ops` — the composable logical operator tree
  (:class:`LogicalPlan`), the one query type and the input of the
  staged lowering pipeline; :class:`PlanBuilder` spells it fluently;
* :mod:`~repro.plan.passes` / :mod:`~repro.plan.physical` — the strategy
  pass framework and the physical operator vocabulary it lowers to.
"""

from .builder import PlanBuilder, scan
from .expressions import (
    And,
    Arith,
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
    arith_ops,
    conjuncts,
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
    Project,
    Scan,
    plan_fingerprint,
)
from .physical import PhysicalPlan, Pipeline
from .serde import plan_from_dict, plan_from_wire, plan_to_dict, plan_to_wire

__all__ = [
    "AggSpec",
    "And",
    "Arith",
    "Col",
    "Compare",
    "Const",
    "DictEq",
    "DictIn",
    "DictPrefix",
    "DisjunctJoin",
    "ExistsJoin",
    "Expr",
    "Filter",
    "GroupByAgg",
    "InSet",
    "Join",
    "LogicalPlan",
    "Or",
    "OuterGroupJoin",
    "PhysicalPlan",
    "Pipeline",
    "PlanBuilder",
    "Project",
    "Scan",
    "StrMatch",
    "arith_ops",
    "conjuncts",
    "plan_fingerprint",
    "plan_from_dict",
    "plan_from_wire",
    "plan_to_dict",
    "plan_to_wire",
    "scan",
]
