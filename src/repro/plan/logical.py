"""The legacy single-join ``Query``: the microbenchmark's vocabulary.

It covers the query shapes of the paper's microbenchmark (Fig. 7b) and
of typical single-join OLAP aggregations:

* scan -> filter -> aggregate (optionally grouped) over one table;
* a foreign-key equijoin against a filtered build table, used either as a
  *semijoin* (no build attributes survive the join — µQ4) or a
  *groupjoin* (join key doubles as the group-by key — µQ5).

The engine lifts a ``Query`` to its operator tree at the door
(:func:`repro.plan.ops.from_query`); TPC-H's more intricate plans are
operator trees to begin with (:mod:`repro.tpch.plans`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import PlanError
from .expressions import Expr


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``func(expr)`` with an output name.

    ``count`` ignores the expression (may be None).
    """

    func: str
    expr: Optional[Expr] = None
    name: str = "sum"

    def __post_init__(self) -> None:
        if self.func not in ("sum", "count"):
            raise PlanError(f"unsupported aggregate function {self.func!r}")
        if self.func == "sum" and self.expr is None:
            raise PlanError("sum aggregate requires an expression")


@dataclass(frozen=True)
class JoinSpec:
    """A foreign-key equijoin ``main.fk_column = build.pk_column``.

    ``build_predicate`` filters the build side. The generic path assumes
    the referential-integrity FK index from ``main.fk_column`` to the
    build table exists (the catalog builds it at load time), which is the
    precondition of the positional-bitmap technique.
    """

    build_table: str
    fk_column: str
    pk_column: str
    build_predicate: Optional[Expr] = None


@dataclass(frozen=True)
class Query:
    """A logical query over ``table`` (optionally joined to one build table).

    ``group_by`` names a column of ``table``; when it equals
    ``join.fk_column`` the query is a *groupjoin* (paper §III-E).
    """

    table: str
    aggregates: Tuple[AggSpec, ...]
    predicate: Optional[Expr] = None
    group_by: Optional[str] = None
    join: Optional[JoinSpec] = None
    name: str = "query"

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise PlanError("query must compute at least one aggregate")
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        names = [agg.name for agg in self.aggregates]
        if len(set(names)) != len(names):
            raise PlanError("duplicate aggregate output names")

    @property
    def is_groupjoin(self) -> bool:
        return (
            self.join is not None
            and self.group_by is not None
            and self.group_by == self.join.fk_column
        )

    @property
    def is_semijoin(self) -> bool:
        """Join where no build attribute is needed beyond the join itself."""
        return self.join is not None and not self.is_groupjoin
