"""Lowering: bound logical plan + pass decisions -> physical plan.

Stage 3 of the staged pipeline (logical plan -> strategy passes ->
**lowering** -> kernel program). Lowering is purely structural — every
cost-guided choice was already made by :func:`repro.plan.passes.run_passes`
and arrives here as a :class:`~repro.plan.passes.Decisions` record; this
module only maps tree shapes onto the physical operator vocabulary:

* each probe spine becomes one :class:`~repro.plan.physical.Pipeline`,
  build pipelines emitted depth-first so every state a pipeline consumes
  was produced by an earlier one;
* Filters become :class:`FilterStage` ops in the strategy's access style
  (branching for datacentric/interpreter, prepass for hybrid/swole);
* Joins become build-op/probe-op pairs according to the join mode the
  passes chose (hash vs positional bitmap, groupjoin vs plain semijoin,
  index join when columns are carried);
* the root aggregation becomes :class:`ScalarAgg`/:class:`GroupAgg` in
  the decided agg mode — or, for an eager-aggregation rewrite, the whole
  plan collapses into one :class:`EagerAggregate` op.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import List

from ..errors import PlanError
from ..plan import passes as PS
from ..plan.expressions import Expr
from ..plan.ops import (
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
    base_table,
    is_groupjoin,
    spine,
    spine_filters,
    spine_joins,
)
from ..plan.physical import (
    BRANCH,
    VECTOR,
    BitmapBuild,
    BitmapSemiProbe,
    CarriedGather,
    ColumnMaterialize,
    DisjunctBitmapProbe,
    DisjunctIndexProbe,
    EagerAggregate,
    ExistsBitmapBuild,
    ExistsBitmapProbe,
    FilterStage,
    GroupAgg,
    GroupBuild,
    GroupDistribution,
    GroupJoinAgg,
    HashJoinCarryProbe,
    HashSemiProbe,
    IndexGather,
    JoinBuild,
    MultiBitmapBuild,
    OuterGroupJoinAgg,
    PhysicalOp,
    PhysicalPlan,
    Pipeline,
    ScalarAgg,
    SemiHashBuild,
)
from ..storage.database import Database


def _access(strategy: str) -> str:
    return BRANCH if strategy in ("interpreter", "datacentric") else VECTOR


def _filter_mode(strategy: str) -> str:
    return "branch" if strategy in ("interpreter", "datacentric") else "prepass"


def eager_aggregate(plan: LogicalPlan) -> EagerAggregate:
    """The §III-E op of an eager-eligible groupjoin tree.

    The eager pass only fires when the tree has the single-join shape
    (build side is Filter*(Scan)), so the mapping is total there.
    """
    root = plan.root
    assert isinstance(root, GroupByAgg)
    joins = spine_joins(root.child)
    if len(joins) != 1:
        raise PlanError("eager aggregation needs a single-join plan")
    (target,) = joins
    return EagerAggregate(
        table=base_table(root.child),
        fk_column=target.fk_column,
        pk_column=target.pk_column,
        build_table=base_table(target.build),
        aggregates=root.aggregates,
        probe_conjuncts=spine_filters(root.child),
        build_conjuncts=spine_filters(target.build),
    )


def lower_plan(
    plan: LogicalPlan,
    decisions: PS.Decisions,
    db: Database,
    strategy: str,
) -> PhysicalPlan:
    """Lower a bound logical plan into a :class:`PhysicalPlan`."""
    root = plan.root
    if not isinstance(root, GroupByAgg):
        raise PlanError("physical lowering expects a GroupByAgg root")
    access = _access(strategy)
    filter_mode = _filter_mode(strategy)
    interpreted = strategy == "interpreter"

    if decisions.groupjoin_mode == PS.EAGER:
        op = eager_aggregate(plan)
        return PhysicalPlan(
            strategy=strategy,
            pipelines=(
                Pipeline(
                    label=f"eager aggregate {op.table}",
                    table=op.table,
                    ops=(op,),
                ),
            ),
            interpreted=interpreted,
        )

    gj_target = (
        spine_joins(root.child)[-1] if is_groupjoin(root) else None
    )
    pipelines: List[Pipeline] = []

    def emit(pipe: Pipeline) -> None:
        # Shared build subtrees (Q5 reaches nation/region through both
        # customer and supplier) lower to identical pipelines; build
        # the state once.
        if pipe not in pipelines:
            pipelines.append(pipe)

    def bitmap_flavour(mode: str) -> str:
        return "mask" if mode == PS.BITMAP_MASK else "offsets"

    def lower_build(join: Join) -> str:
        """Lower a join's build side into its own pipeline(s)."""
        state = base_table(join.build)
        ops = lower_steps(join.build, in_build=True)
        mode = decisions.join_modes.get(join, PS.HASH_JOIN)
        if join is gj_target:
            ops.append(
                GroupBuild(
                    state, join.pk_column, len(root.aggregates), access
                )
            )
            label = f"build {state}"
        elif mode in (PS.BITMAP_MASK, PS.BITMAP_OFFSETS):
            ops.append(
                BitmapBuild(state, bitmap_flavour(mode), join.carry)
            )
            label = f"bitmap build {state}"
        elif join.carry and not _filters_stream(join.build):
            # Index join: the build pipeline only materializes the
            # carried columns (full length); nothing to hash.
            label = f"scan {state}"
        elif join.carry:
            ops.append(
                JoinBuild(state, join.pk_column, join.carry, access)
            )
            label = f"build {state}"
        else:
            ops.append(SemiHashBuild(state, join.pk_column, access))
            label = f"build {state}"
        emit(Pipeline(label=label, table=state, ops=tuple(ops)))
        return state

    def lower_steps(
        node: PlanNode, in_build: bool = False
    ) -> List[PhysicalOp]:
        """Ops for one spine, excluding the terminal aggregation."""
        ops: List[PhysicalOp] = []
        table = base_table(node)
        pending: List[CarriedGather] = []

        def flush_gathers() -> None:
            # Late materialization: carried columns are gathered only
            # once every semijoin on the spine has narrowed the stream
            # (priced), or composed for free while a build pipeline
            # merely threads them along.
            ops.extend(pending)
            pending.clear()

        for step in spine(node):
            if isinstance(step, Scan):
                continue
            if isinstance(step, Filter):
                cols = set()
                for conj in step.conjuncts():
                    cols |= conj.columns()
                if any(
                    col in gather.columns
                    for gather in pending
                    for col in cols
                ):
                    flush_gathers()
                ops.append(FilterStage(step.conjuncts(), filter_mode))
            elif isinstance(step, Project):
                for name, expr in step.outputs:
                    lut = _lut_entries(db, table, expr)
                    ops.append(
                        ColumnMaterialize(table, name, expr, lut)
                    )
            elif isinstance(step, Join):
                state = lower_build(step)
                mode = decisions.join_modes.get(step, PS.HASH_JOIN)
                if step is gj_target:
                    ops.append(
                        GroupJoinAgg(
                            state,
                            step.fk_column,
                            root.aggregates,
                            access,
                        )
                    )
                elif mode in (PS.BITMAP_MASK, PS.BITMAP_OFFSETS):
                    ops.append(BitmapSemiProbe(state, step.fk_column))
                    if step.carry:
                        pending.append(
                            CarriedGather(
                                state,
                                step.fk_column,
                                step.carry,
                                priced=not in_build,
                            )
                        )
                elif step.carry and not _filters_stream(step.build):
                    ops.append(
                        IndexGather(
                            state, step.fk_column, step.carry, access
                        )
                    )
                elif step.carry:
                    ops.append(
                        HashJoinCarryProbe(
                            state, step.fk_column, step.carry, access
                        )
                    )
                else:
                    ops.append(
                        HashSemiProbe(state, step.fk_column, access)
                    )
            elif isinstance(step, ExistsJoin):
                state = base_table(step.build)
                probe_tbl = base_table(step.probe)
                mode = decisions.join_modes.get(step, PS.HASH_JOIN)
                build_ops = lower_steps(step.build, in_build=True)
                if mode in (PS.BITMAP_MASK, PS.BITMAP_OFFSETS):
                    build_ops.append(
                        ExistsBitmapBuild(
                            state,
                            step.fk_column,
                            probe_tbl,
                            bitmap_flavour(mode),
                        )
                    )
                    emit(
                        Pipeline(
                            label=f"bitmap build {state}",
                            table=state,
                            ops=tuple(build_ops),
                        )
                    )
                    ops.append(ExistsBitmapProbe(state, step.anti))
                else:
                    build_ops.append(
                        SemiHashBuild(
                            state,
                            step.fk_column,
                            access,
                            expected_from=probe_tbl,
                        )
                    )
                    emit(
                        Pipeline(
                            label=f"build {state}",
                            table=state,
                            ops=tuple(build_ops),
                        )
                    )
                    ops.append(
                        HashSemiProbe(
                            state,
                            step.pk_column,
                            access,
                            negate=step.anti,
                        )
                    )
            elif isinstance(step, OuterGroupJoin):
                if _filters_stream(step.build):
                    raise PlanError(
                        "outer groupjoin build must be a plain scan"
                    )
                state = base_table(step.build)
                ops.append(
                    OuterGroupJoinAgg(
                        state,
                        step.fk_column,
                        step.count_name,
                        decisions.outer_mode,
                        build_table=state,
                    )
                )
            elif isinstance(step, DisjunctJoin):
                state = base_table(step.build)
                mode = decisions.join_modes.get(step, PS.HASH_JOIN)
                if mode in (PS.BITMAP_MASK, PS.BITMAP_OFFSETS):
                    build_ops = lower_steps(step.build, in_build=True)
                    build_ops.append(
                        MultiBitmapBuild(
                            state,
                            tuple(bp for bp, _ in step.disjuncts),
                        )
                    )
                    emit(
                        Pipeline(
                            label=f"bitmap build {state}",
                            table=state,
                            ops=tuple(build_ops),
                        )
                    )
                    ops.append(
                        DisjunctBitmapProbe(
                            state, step.fk_column, step.disjuncts
                        )
                    )
                else:
                    # No build pipeline: each surviving probe row reads
                    # its build partner through the FK index in place.
                    ops.append(
                        DisjunctIndexProbe(
                            state, step.fk_column, step.disjuncts, access
                        )
                    )
            elif isinstance(step, GroupByAgg):
                continue  # the caller appends the terminal op
            else:
                raise PlanError(f"cannot lower plan node {step!r}")
        flush_gathers()
        return ops

    outer = next(
        (
            step
            for step in spine(root.child)
            if isinstance(step, OuterGroupJoin)
        ),
        None,
    )
    if outer is not None:
        _check_outer_root(root, outer)

    probe_table = base_table(root.child)
    ops = lower_steps(root.child)
    if gj_target is None and outer is None:
        if root.key is None:
            ops.append(ScalarAgg(root.aggregates, decisions.agg_mode))
        else:
            ops.append(
                GroupAgg(
                    key=root.key,
                    key_name=root.key_name,
                    aggregates=root.aggregates,
                    mode=decisions.agg_mode,
                    expected_groups=decisions.group_cardinality,
                )
            )
    joined = any(
        isinstance(step, (Join, ExistsJoin, DisjunctJoin))
        for step in spine(root.child)
    )
    label = f"{'probe' if joined else 'scan'} {probe_table}"
    merged = (
        decisions.merged_columns
        if decisions.agg_mode in (PS.VALUE_MASK, PS.KEY_MASK)
        else ()
    )
    pipelines.append(
        Pipeline(
            label=label, table=probe_table, ops=tuple(ops), merged=merged
        )
    )
    if outer is not None:
        # The grouped tail runs over the count table, one slot per
        # build key, folding never-seen keys into the zero bucket.
        build_table = base_table(outer.build)
        pipelines.append(
            Pipeline(
                label="distribution",
                table=build_table,
                ops=(
                    GroupDistribution(
                        state=build_table,
                        key_name=root.key_name,
                        agg_name=root.aggregates[0].name,
                    ),
                ),
            )
        )
    return PhysicalPlan(
        strategy=strategy,
        pipelines=tuple(
            _stamp_encoding(pipe, decisions) for pipe in pipelines
        ),
        interpreted=interpreted,
    )


def _stamp_encoding(
    pipe: Pipeline, decisions: PS.Decisions
) -> Pipeline:
    """Attach the table's access-encoding decision to its pipeline.

    The distribution tail scans a hash-table state, not base columns,
    so it never streams codes and keeps an empty encoding.
    """
    encodings = decisions.encodings.get(pipe.table, ())
    if not encodings:
        return pipe
    if any(isinstance(op, GroupDistribution) for op in pipe.ops):
        return pipe
    return dc_replace(pipe, encodings=tuple(encodings))


def _filters_stream(node: PlanNode) -> bool:
    """Whether a build subtree restricts its stream at all."""
    return bool(spine_filters(node)) or bool(spine_joins(node))


def _check_outer_root(root: GroupByAgg, outer: OuterGroupJoin) -> None:
    """The outer groupjoin rekeys the stream; the root must group the
    count column it produces with a single count aggregate."""
    from ..plan.expressions import Col

    if (
        not isinstance(root.key, Col)
        or root.key.name != outer.count_name
        or len(root.aggregates) != 1
        or root.aggregates[0].func != "count"
    ):
        raise PlanError(
            "an OuterGroupJoin plan must group by its count column "
            f"({outer.count_name!r}) with a single count aggregate"
        )


def _lut_entries(db: Database, table: str, expr: Expr) -> int:
    """Dictionary size when a materialized expr probes a dict column."""
    for name in sorted(expr.columns()):
        dictionary = db.table(table).column(name).dictionary
        if dictionary is not None:
            return len(dictionary)
    return 0


__all__ = ["lower_plan"]
