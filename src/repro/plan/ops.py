"""Composable logical operator trees — the generic plan IR.

The original :class:`~repro.plan.logical.Query` dataclass hard-codes one
shape (scan -> filter -> aggregate, plus at most one FK join). This
module generalises it to a small tree algebra so multi-join queries like
TPC-H Q3 and carried-column index joins like Q14 compile through the
same staged pipeline (logical plan -> strategy passes -> physical plan
-> kernel program) instead of being hand-coded per strategy:

* :class:`Scan` — a base table;
* :class:`Filter` — a conjunctive predicate over its child's stream;
* :class:`Project` — adds derived columns to the stream (e.g. Q14's
  dictionary-driven ``promo`` flag);
* :class:`Join` — a foreign-key equijoin. With no carried columns it is
  a *semijoin* (the build side only filters the probe stream); with
  ``carry`` it brings build-side columns into the probe stream through
  the FK index; when the enclosing :class:`GroupByAgg` groups by the
  join's FK column it is a *groupjoin* (paper §III-E);
* :class:`GroupByAgg` — the aggregation root (scalar when ``key`` is
  ``None``; the key may be an arbitrary expression, e.g. Q1's
  ``rf * 2 + ls``).

Trees are frozen dataclasses: hashable, ``repr``-stable, and therefore
fingerprintable — the plan cache keys compiled programs by
:func:`plan_fingerprint`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

from ..errors import PlanError, ReproError
from .expressions import Col, Expr, conjuncts
from .logical import AggSpec, Query


class PlanNode:
    """Base class of logical operator-tree nodes."""

    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Scan(PlanNode):
    """Scan of a base table."""

    table: str

    def describe(self) -> str:
        return f"Scan {self.table}"


@dataclass(frozen=True)
class Filter(PlanNode):
    """Conjunctive predicate over the child's stream."""

    child: PlanNode
    predicate: Expr

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def conjuncts(self) -> Tuple[Expr, ...]:
        return conjuncts(self.predicate)

    def describe(self) -> str:
        return f"Filter {self.predicate.to_c()}"


@dataclass(frozen=True)
class Project(PlanNode):
    """Adds derived columns (``name -> expr``) to the child's stream."""

    child: PlanNode
    outputs: Tuple[Tuple[str, Expr], ...]

    def __init__(
        self, child: PlanNode, outputs: Sequence[Tuple[str, Expr]]
    ) -> None:
        outputs = tuple((str(name), expr) for name, expr in outputs)
        if not outputs:
            raise PlanError("Project requires at least one output column")
        names = [name for name, _ in outputs]
        if len(set(names)) != len(names):
            raise PlanError("duplicate Project output names")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "outputs", outputs)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        cols = ", ".join(
            f"{name}={expr.to_c()}" for name, expr in self.outputs
        )
        return f"Project {cols}"


@dataclass(frozen=True)
class Join(PlanNode):
    """Foreign-key equijoin ``probe.fk_column = build.pk_column``.

    ``probe`` is the FK (large) side whose stream flows on; ``build`` is
    the PK side. ``carry`` names build-side stream columns pulled into
    the probe stream through the FK index (an *index join*); when empty
    the join is a pure semijoin.
    """

    probe: PlanNode
    build: PlanNode
    fk_column: str
    pk_column: str
    carry: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "carry", tuple(self.carry))

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.probe, self.build)

    @property
    def is_semijoin(self) -> bool:
        return not self.carry

    def describe(self) -> str:
        kind = "index" if self.carry else "semi"
        text = (
            f"Join[{kind}] {self.fk_column} = "
            f"{base_table(self.build)}.{self.pk_column}"
        )
        if self.carry:
            text += f" carry={list(self.carry)}"
        return text


@dataclass(frozen=True)
class ExistsJoin(PlanNode):
    """Existential (or anti-) semijoin ``EXISTS (build.fk = probe.pk)``.

    Unlike :class:`Join`, the *probe* stream is the PK (small) side and
    the build side scans the FK (large) side: a probe row survives when
    at least one build row references it (Q4's ``EXISTS`` subquery), or
    — with ``anti`` — when none does (``NOT EXISTS``).
    """

    probe: PlanNode
    build: PlanNode
    pk_column: str
    fk_column: str
    anti: bool = False

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.probe, self.build)

    def describe(self) -> str:
        kind = "anti" if self.anti else "exists"
        return (
            f"ExistsJoin[{kind}] {self.pk_column} = "
            f"{base_table(self.build)}.{self.fk_column}"
        )


@dataclass(frozen=True)
class OuterGroupJoin(PlanNode):
    """Outer groupjoin: count probe rows per build key, keeping zeros.

    The probe (FK) stream is counted into one slot per build-side key;
    build rows with no qualifying probe rows survive with count zero
    (Q13's zero-order customers). The node *rekeys* the stream: its
    output is one row per build key carrying ``count_name``.
    """

    probe: PlanNode
    build: PlanNode
    fk_column: str
    pk_column: str
    count_name: str = "count"

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.probe, self.build)

    def describe(self) -> str:
        return (
            f"OuterGroupJoin[outer] {self.fk_column} = "
            f"{base_table(self.build)}.{self.pk_column} "
            f"count={self.count_name}"
        )


@dataclass(frozen=True)
class DisjunctJoin(PlanNode):
    """OR-of-conjunctions join filter (Q19's shape, paper §III-F).

    Each disjunct pairs a build-side predicate with a probe-side
    predicate; a probe row survives when, for *some* disjunct, its FK
    partner satisfies the build predicate and the row itself satisfies
    the probe predicate:

    ``OR_i (build_pred_i(build[fk]) AND probe_pred_i(probe))``
    """

    probe: PlanNode
    build: PlanNode
    fk_column: str
    pk_column: str
    disjuncts: Tuple[Tuple[Expr, Expr], ...]

    def __post_init__(self) -> None:
        pairs = tuple(
            (build_pred, probe_pred)
            for build_pred, probe_pred in self.disjuncts
        )
        if not pairs:
            raise PlanError("DisjunctJoin requires at least one disjunct")
        object.__setattr__(self, "disjuncts", pairs)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.probe, self.build)

    def describe(self) -> str:
        arms = " OR ".join(
            f"[{bp.to_c()} && {pp.to_c()}]"
            for bp, pp in self.disjuncts
        )
        return (
            f"DisjunctJoin {self.fk_column} = "
            f"{base_table(self.build)}.{self.pk_column} on {arms}"
        )


@dataclass(frozen=True)
class GroupByAgg(PlanNode):
    """Aggregation root: scalar when ``key`` is None, grouped otherwise.

    ``key`` is an arbitrary expression over the child stream (Q1 groups
    by ``l_returnflag * 2 + l_linestatus``); ``key_name`` labels the key
    in rendered plans.
    """

    child: PlanNode
    aggregates: Tuple[AggSpec, ...]
    key: Optional[Expr] = None
    key_name: str = "key"

    def __post_init__(self) -> None:
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        if not self.aggregates:
            raise PlanError("GroupByAgg needs at least one aggregate")
        names = [agg.name for agg in self.aggregates]
        if len(set(names)) != len(names):
            raise PlanError("duplicate aggregate output names")

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        aggs = ", ".join(
            f"{a.name}={a.func}"
            + (f"({a.expr.to_c()})" if a.expr is not None else "(*)")
            for a in self.aggregates
        )
        head = "Aggregate" if self.key is None else "GroupByAgg"
        key = "" if self.key is None else f" key[{self.key_name}]={self.key.to_c()}"
        return f"{head}{key} aggs=[{aggs}]"


@dataclass(frozen=True)
class LogicalPlan:
    """A named operator tree — the unit the staged pipeline compiles."""

    name: str
    root: PlanNode

    def describe(self) -> str:
        return render(self.root)


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------


#: Nodes with a (probe, build) pair; the probe stream flows on.
JOIN_NODES = (Join, ExistsJoin, OuterGroupJoin, DisjunctJoin)


def base_table(node: PlanNode) -> str:
    """The scan table at the bottom of a node's probe spine."""
    while not isinstance(node, Scan):
        if isinstance(node, JOIN_NODES):
            node = node.probe
        elif isinstance(node, (Filter, Project, GroupByAgg)):
            node = node.child
        else:
            raise PlanError(f"cannot find base table under {node!r}")
    return node.table


def spine(node: PlanNode) -> Tuple[PlanNode, ...]:
    """The probe spine of a subtree, bottom (Scan) first.

    Join nodes appear on the spine; their build subtrees do not.
    """
    chain = []
    while True:
        chain.append(node)
        if isinstance(node, Scan):
            break
        if isinstance(node, JOIN_NODES):
            node = node.probe
        elif isinstance(node, (Filter, Project, GroupByAgg)):
            node = node.child
        else:
            raise PlanError(f"unknown plan node {node!r}")
    return tuple(reversed(chain))


def spine_filters(node: PlanNode) -> Tuple[Expr, ...]:
    """All filter conjuncts along a subtree's probe spine, in order."""
    terms: Tuple[Expr, ...] = ()
    for step in spine(node):
        if isinstance(step, Filter):
            terms += step.conjuncts()
    return terms


def spine_joins(node: PlanNode) -> Tuple[Join, ...]:
    """The joins along a subtree's probe spine, innermost first."""
    return tuple(
        step for step in spine(node) if isinstance(step, Join)
    )


def is_groupjoin(root: GroupByAgg) -> bool:
    """Whether the aggregation folds into its outermost spine join.

    True when the group key is exactly the FK column of the topmost
    semijoin on the child spine (paper §III-E's groupjoin shape).
    """
    if not isinstance(root.key, Col):
        return False
    top = root.child
    while isinstance(top, (Filter, Project)) and not isinstance(top, Join):
        # a Filter/Project *above* the join still leaves the join the
        # stream's key producer only if nothing rekeys the stream; the
        # simple IR has no rekeying ops, so walking down is safe
        top = top.child
    return (
        isinstance(top, Join)
        and top.is_semijoin
        and top.fk_column == root.key.name
    )


def validate(plan: LogicalPlan) -> None:
    """Structural checks the compiler relies on; raises ``PlanError``."""
    root = plan.root
    if not isinstance(root, GroupByAgg):
        raise PlanError(
            "the pipeline compiles aggregation queries: the plan root "
            f"must be GroupByAgg, got {type(root).__name__}"
        )

    def check(node: PlanNode) -> None:
        if isinstance(node, GroupByAgg) and node is not root:
            raise PlanError("GroupByAgg is only valid at the plan root")
        if isinstance(node, Join):
            if node.carry:
                # A carried column may be a Project output or an upstream
                # carry on the build spine, or a base column of the
                # build-side scan; the first two are checkable here, base
                # columns resolve against the database at bind time.
                names = [c for c in node.carry if not isinstance(c, str)]
                if names:
                    raise PlanError(
                        f"carried columns must be names, got {names}"
                    )
        for child in node.children():
            check(child)

    check(root)


def render(node: PlanNode, indent: int = 0) -> str:
    """Indented tree rendering (the ``explain`` logical-plan section)."""
    pad = "  " * indent
    lines = [pad + node.describe()]
    if isinstance(node, JOIN_NODES):
        lines.append(render(node.probe, indent + 1))
        lines.append(pad + "  build:")
        lines.append(render(node.build, indent + 2))
    else:
        for child in node.children():
            lines.append(render(child, indent + 1))
    return "\n".join(lines)


@lru_cache(maxsize=512)
def plan_fingerprint(plan: Union[LogicalPlan, PlanNode]) -> str:
    """Stable structural fingerprint of an operator tree.

    Frozen dataclasses have deterministic ``repr``s, so hashing the repr
    is a faithful structural digest. This is the plan-cache key of
    every query (legacy ``Query`` objects convert via
    :func:`from_query` at the engine's door), so two spellings of the
    same tree share one cache entry.
    """
    digest = hashlib.sha256(repr(plan).encode()).hexdigest()[:16]
    return f"ir:{digest}"


@lru_cache(maxsize=256)
def from_query(query: Query) -> LogicalPlan:
    """Convert a legacy single-join :class:`Query` to an operator tree.

    The conversion is total: scalar/grouped aggregations, semijoins and
    groupjoins (group key == FK column) all map onto the tree shapes the
    staged pipeline understands.
    """
    node: PlanNode = Scan(query.table)
    if query.predicate is not None:
        node = Filter(node, query.predicate)
    if query.join is not None:
        join = query.join
        build: PlanNode = Scan(join.build_table)
        if join.build_predicate is not None:
            build = Filter(build, join.build_predicate)
        node = Join(
            probe=node,
            build=build,
            fk_column=join.fk_column,
            pk_column=join.pk_column,
        )
    key = Col(query.group_by) if query.group_by is not None else None
    key_name = query.group_by if query.group_by is not None else "key"
    root = GroupByAgg(
        child=node,
        aggregates=query.aggregates,
        key=key,
        key_name=key_name,
    )
    return LogicalPlan(name=query.name, root=root)


def as_plan(query) -> LogicalPlan:
    """Whatever the engine accepts as a query, as its operator tree.

    A :class:`LogicalPlan` passes through; a legacy microbench
    :class:`~repro.plan.logical.Query` is lifted with
    :func:`from_query` — here and nowhere else, so nothing past the
    engine's door (:func:`repro.engine.plan_cache.normalize_query`)
    knows the legacy spelling. Anything else is a typed error.
    """
    if isinstance(query, LogicalPlan):
        return query
    if isinstance(query, Query):
        return from_query(query)
    if isinstance(query, str):
        raise ReproError(
            f"query name strings are no longer accepted (got {query!r}); "
            f'pass the operator tree — repro.tpch.logical_plan("{query}") '
            "for the TPC-H queries, or build one with repro.PlanBuilder"
        )
    raise ReproError(
        f"cannot compile a {type(query).__name__}; pass a "
        "LogicalPlan operator tree or a microbench Query"
    )
