"""Plan IR: expressions, legacy queries, operator trees, physical plans.

Three layers, oldest first:

* :mod:`~repro.plan.logical` — the legacy single-join :class:`Query`
  dataclass (still the microbench vocabulary);
* :mod:`~repro.plan.ops` — the composable logical operator tree
  (:class:`LogicalPlan`), the input of the staged lowering pipeline;
  :func:`from_query` converts legacy queries onto it;
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
from .logical import AggSpec, JoinSpec, Query
from .ops import (
    DisjunctJoin,
    ExistsJoin,
    Filter,
    GroupByAgg,
    Join,
    LogicalPlan,
    OuterGroupJoin,
    Project,
    Scan,
    from_query,
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
    "JoinSpec",
    "LogicalPlan",
    "Or",
    "OuterGroupJoin",
    "PhysicalPlan",
    "Pipeline",
    "PlanBuilder",
    "Project",
    "Query",
    "Scan",
    "StrMatch",
    "arith_ops",
    "conjuncts",
    "from_query",
    "plan_fingerprint",
    "plan_from_dict",
    "plan_from_wire",
    "plan_to_dict",
    "plan_to_wire",
    "scan",
]
