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

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import PlanError
from .expressions import Expr, conjuncts


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

    def predicate_conjuncts(self) -> Tuple[Expr, ...]:
        return conjuncts(self.predicate)

    def main_columns(self) -> Tuple[str, ...]:
        """All columns of ``table`` the query touches (sorted)."""
        cols = set()
        for term in self.predicate_conjuncts():
            cols |= term.columns()
        for agg in self.aggregates:
            if agg.expr is not None:
                cols |= agg.expr.columns()
        if self.group_by is not None:
            cols.add(self.group_by)
        if self.join is not None:
            cols.add(self.join.fk_column)
        return tuple(sorted(cols))

    def reused_columns(self) -> Tuple[str, ...]:
        """Columns referenced by both the predicate and an aggregate —
        the access-merging opportunity (paper §III-C)."""
        pred_cols = set()
        for term in self.predicate_conjuncts():
            pred_cols |= term.columns()
        agg_cols = set()
        for agg in self.aggregates:
            if agg.expr is not None:
                agg_cols |= agg.expr.columns()
        return tuple(sorted(pred_cols & agg_cols))


@dataclass
class QueryStats:
    """Optimizer statistics for a query, measured by sampling.

    Feeds the SWOLE cost models (paper §III). All fields are measured
    from data samples at plan time, never taken from query results.
    """

    num_rows: int
    selectivity: float
    group_cardinality: int = 1
    build_rows: int = 0
    build_selectivity: float = 1.0
    join_match_fraction: float = 1.0
    agg_ops: Tuple[str, ...] = ()
    column_widths: Dict[str, int] = field(default_factory=dict)


def sample_stats(query: Query, tables: Dict[str, Dict[str, np.ndarray]],
                 sample_rows: int = 65536) -> QueryStats:
    """Measure :class:`QueryStats` from a prefix sample of the data.

    A prefix sample is adequate because all generated workloads are
    row-order-independent (uniform random); the test suite checks the
    estimates against full-data truth within tolerance.
    """
    data = tables[query.table]
    any_column = next(iter(data.values()))
    num_rows = int(any_column.shape[0])
    take = min(sample_rows, num_rows)
    sample = {name: values[:take] for name, values in data.items()}

    if query.predicate is None:
        selectivity = 1.0
    else:
        mask = query.predicate.evaluate(sample)
        selectivity = float(mask.mean()) if take else 1.0

    group_cardinality = 1
    if query.group_by is not None:
        column = data[query.group_by]
        group_cardinality = int(np.unique(column[:take]).shape[0])
        if take < num_rows:
            # Prefix samples under-count distinct values; extrapolate with
            # the standard birthday-style estimator.
            seen_fraction = group_cardinality / take
            if seen_fraction > 0.95:
                group_cardinality = int(group_cardinality * num_rows / take)

    build_rows = 0
    build_selectivity = 1.0
    if query.join is not None:
        build = tables[query.join.build_table]
        build_any = next(iter(build.values()))
        build_rows = int(build_any.shape[0])
        if query.join.build_predicate is not None:
            btake = min(sample_rows, build_rows)
            bsample = {name: values[:btake] for name, values in build.items()}
            bmask = query.join.build_predicate.evaluate(bsample)
            build_selectivity = float(bmask.mean()) if btake else 1.0

    agg_ops: Tuple[str, ...] = ()
    for agg in query.aggregates:
        if agg.expr is not None:
            from .expressions import arith_ops

            agg_ops += arith_ops(agg.expr)

    widths = {name: int(values.dtype.itemsize) for name, values in data.items()}

    return QueryStats(
        num_rows=num_rows,
        selectivity=selectivity,
        group_cardinality=max(group_cardinality, 1),
        build_rows=build_rows,
        build_selectivity=build_selectivity,
        join_match_fraction=build_selectivity,
        agg_ops=agg_ops,
        column_widths=widths,
    )
