"""Fluent construction of logical operator trees.

:class:`PlanBuilder` is the front-door spelling of the plan IR: each
method wraps the current :class:`~repro.plan.ops.PlanNode` in the next
operator and returns a new builder, so a query reads top to bottom like
its own plan::

    from repro import PlanBuilder
    from repro.plan.expressions import Col, DictEq

    plan = (
        PlanBuilder.scan("lineitem")
        .filter(Col("l_shipdate") < 10471)
        .join("part", fk_column="l_partkey", pk_column="p_partkey",
              carry=("p_type",))
        .group_agg(AggSpec("sum", Col("l_extendedprice"), name="revenue"),
                   key="p_type")
        .build("revenue-by-type")
    )

``build()`` validates the finished tree (the staged pipeline requires a
:class:`~repro.plan.ops.GroupByAgg` root) and returns a
:class:`~repro.plan.ops.LogicalPlan` ready for ``Engine.execute`` /
``Engine.explain`` or the wire protocol (:mod:`repro.plan.serde`).

Build sides of the join constructors accept another builder, a raw
plan node, or a bare table name (shorthand for ``Scan``). Builders are
immutable: every method returns a fresh builder, so prefixes can be
shared between queries.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

from ..errors import PlanError
from .expressions import And, Col, Expr
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
    validate,
)

#: Anything accepted as the build side of a join: another builder, a
#: finished plan node, or a table name (shorthand for ``Scan(name)``).
BuildSide = Union["PlanBuilder", PlanNode, str]


def _as_node(side: BuildSide) -> PlanNode:
    if isinstance(side, PlanBuilder):
        return side.node
    if isinstance(side, PlanNode):
        return side
    if isinstance(side, str):
        return Scan(side)
    raise PlanError(
        f"a build side must be a PlanBuilder, a PlanNode, or a table "
        f"name, got {type(side).__name__}"
    )


def scan(table: str) -> "PlanBuilder":
    """Start a builder at a base-table scan (module-level shorthand)."""
    return PlanBuilder(Scan(table))


class PlanBuilder:
    """A partially-built operator tree; see the module docstring."""

    __slots__ = ("_node",)

    def __init__(self, node: PlanNode) -> None:
        if not isinstance(node, PlanNode):
            raise PlanError(
                f"PlanBuilder wraps plan nodes, got {type(node).__name__}"
            )
        self._node = node

    @property
    def node(self) -> PlanNode:
        """The operator tree built so far."""
        return self._node

    @classmethod
    def scan(cls, table: str) -> "PlanBuilder":
        """Start a plan at a base-table scan."""
        return cls(Scan(table))

    # -- stream operators ------------------------------------------------

    def filter(self, *predicates: Expr) -> "PlanBuilder":
        """Keep rows satisfying every predicate (ANDed when several).

        Each argument becomes its own conjunct — one branch site (or
        prepass loop) per argument under the baseline strategies. To
        make several comparisons share a single site, pass one
        ``And([...])`` argument instead.
        """
        if not predicates:
            raise PlanError("filter() needs at least one predicate")
        for pred in predicates:
            if not isinstance(pred, Expr):
                raise PlanError(
                    f"filter() takes expressions, got {type(pred).__name__}"
                )
        predicate = (
            predicates[0]
            if len(predicates) == 1
            else And(list(predicates))
        )
        return PlanBuilder(Filter(self._node, predicate))

    def project(self, **outputs: Expr) -> "PlanBuilder":
        """Add derived columns ``name=expr`` to the stream."""
        return PlanBuilder(Project(self._node, tuple(outputs.items())))

    # -- joins (the current stream is always the probe side) -------------

    def join(
        self,
        build: BuildSide,
        *,
        fk_column: str,
        pk_column: str,
        carry: Sequence[str] = (),
    ) -> "PlanBuilder":
        """FK equijoin against ``build``; ``carry`` pulls build columns
        into the stream (an index join), empty means pure semijoin."""
        return PlanBuilder(
            Join(
                probe=self._node,
                build=_as_node(build),
                fk_column=fk_column,
                pk_column=pk_column,
                carry=tuple(carry),
            )
        )

    def exists_join(
        self,
        build: BuildSide,
        *,
        pk_column: str,
        fk_column: str,
        anti: bool = False,
    ) -> "PlanBuilder":
        """Existential semijoin: keep stream rows referenced by at least
        one build row (Q4's ``EXISTS``); ``anti`` inverts it."""
        return PlanBuilder(
            ExistsJoin(
                probe=self._node,
                build=_as_node(build),
                pk_column=pk_column,
                fk_column=fk_column,
                anti=anti,
            )
        )

    def anti_join(
        self, build: BuildSide, *, pk_column: str, fk_column: str
    ) -> "PlanBuilder":
        """``NOT EXISTS`` — sugar for ``exists_join(anti=True)``."""
        return self.exists_join(
            build, pk_column=pk_column, fk_column=fk_column, anti=True
        )

    def outer_group_join(
        self,
        build: BuildSide,
        *,
        fk_column: str,
        pk_column: str,
        count_name: str = "count",
    ) -> "PlanBuilder":
        """Count stream rows per build key, keeping zero-count build
        rows (Q13). Rekeys the stream to one row per build key."""
        return PlanBuilder(
            OuterGroupJoin(
                probe=self._node,
                build=_as_node(build),
                fk_column=fk_column,
                pk_column=pk_column,
                count_name=count_name,
            )
        )

    def disjunct_join(
        self,
        build: BuildSide,
        *,
        fk_column: str,
        pk_column: str,
        disjuncts: Iterable[Tuple[Expr, Expr]],
    ) -> "PlanBuilder":
        """OR-of-conjunctions join filter (Q19): each disjunct pairs a
        build-side predicate with a probe-side predicate."""
        return PlanBuilder(
            DisjunctJoin(
                probe=self._node,
                build=_as_node(build),
                fk_column=fk_column,
                pk_column=pk_column,
                disjuncts=tuple(disjuncts),
            )
        )

    # -- aggregation root ------------------------------------------------

    def group_agg(
        self,
        *aggregates: AggSpec,
        key: Union[Expr, str, None] = None,
        key_name: Optional[str] = None,
    ) -> "PlanBuilder":
        """Aggregate the stream: scalar without ``key``, grouped with.

        ``key`` may be a column name (shorthand for ``Col(name)``, which
        also names the key) or any expression; ``key_name`` labels
        expression keys in rendered plans.
        """
        key_expr: Optional[Expr]
        if isinstance(key, str):
            key_expr = Col(key)
            key_name = key_name if key_name is not None else key
        elif key is None or isinstance(key, Expr):
            key_expr = key
            if key_name is None:
                key_name = key.name if isinstance(key, Col) else "key"
        else:
            raise PlanError(
                f"group key must be a column name or expression, "
                f"got {type(key).__name__}"
            )
        return PlanBuilder(
            GroupByAgg(
                child=self._node,
                aggregates=tuple(aggregates),
                key=key_expr,
                key_name=key_name,
            )
        )

    # -- finish ----------------------------------------------------------

    def build(self, name: str) -> LogicalPlan:
        """Validate the finished tree and return the named plan."""
        plan = LogicalPlan(name=str(name), root=self._node)
        validate(plan)
        return plan

    def describe(self) -> str:
        """Rendering of the tree built so far (for interactive use)."""
        return LogicalPlan(name="<building>", root=self._node).describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanBuilder({self._node!r})"


__all__ = ["BuildSide", "PlanBuilder", "scan"]
