"""Strategy passes over logical operator trees.

Stage 2 of the staged lowering pipeline (logical plan -> **passes** ->
physical plan -> kernel program). :func:`run_passes` takes a
:class:`~repro.plan.ops.LogicalPlan` and returns

* the *bound* plan — database-dependent placeholders (``DictEq``,
  ``DictPrefix``) resolved to dictionary codes;
* a :class:`Decisions` record the lowering stage consumes; and
* an ordered list of :class:`PassNote` entries — every rewrite that was
  applied, declined, or retained, with the cost-model estimates behind
  each cost-guided choice. ``Engine.explain`` renders these verbatim.

Pass ordering is fixed:

1. **bind-dictionary-literals** (all strategies) — must run first so the
   statistics passes can evaluate predicates on data samples;
2. **pushdown** (interpreter/datacentric/hybrid) — the baseline
   strategies keep every predicate at the scan, by construction;
3. **bitmap-semijoin** (swole, §III-D) — per pure semijoin, choose the
   positional-bitmap build flavour via the cost model;
4. **groupjoin** (swole, §III-E) — eager-aggregation rewrite when the
   cost model prefers it and the build side is a filtered scan;
5. **aggregation** (swole, §III-A/B) — value/key masking vs the hybrid
   fallback for the terminal aggregation;
6. **access-merging** (swole, §III-C) — only meaningful under masked
   aggregation, hence last.

Cost-guided passes call the ``choose_*`` helpers of
:mod:`repro.core.planner`, one §III decision each. A new technique
registers here by appending a pass function to ``_SWOLE_PASSES`` (see
DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import cost_models as cm
from ..core import planner as P
from ..engine.costing import StatsOverride
from ..engine.machine import MachineModel
from ..errors import PlanError, StorageError
from ..plan.expressions import (
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
    col_refs,
)
from ..storage.database import Database
from .ops import (
    JOIN_NODES,
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
    validate,
)

#: Aggregation lowering modes (physical vocabulary, per strategy).
CONDITIONAL = "conditional"  # branch + conditional reads (datacentric)
GATHERED = "gathered"  # selection vector + gathers (hybrid fallback)
VALUE_MASK = "value_mask"  # §III-A
KEY_MASK = "key_mask"  # §III-B

#: Join lowering modes.
HASH_JOIN = "hash"
BITMAP_MASK = P.BITMAP_MASK
BITMAP_OFFSETS = P.BITMAP_OFFSETS

#: Groupjoin lowering mode (§III-E rewrite).
EAGER = P.EAGER

_SAMPLE_ROWS = 65536


@dataclass(frozen=True)
class PassNote:
    """One pass outcome: applied / declined / retained, with estimates."""

    pass_name: str
    action: str
    detail: str = ""
    estimates: Tuple[Tuple[str, float], ...] = ()

    def describe(self) -> str:
        text = f"[{self.pass_name}] {self.action}"
        if self.detail:
            text += f" — {self.detail}"
        if self.estimates:
            costs = ", ".join(
                f"{name}={value:.1f}" for name, value in self.estimates
            )
            text += f" (est cycles: {costs})"
        return text

    @property
    def estimated_cycles(self) -> Optional[float]:
        """Cycle estimate of the candidate this pass chose.

        Cost-guided passes record every candidate's estimate; the
        chooser always picks the cheapest, so the minimum is the cycles
        the plan was priced with. ``None`` for passes without estimates
        (binding, unconditional rewrites). The adaptive loop pairs this
        with the observed cycles in ``Engine.explain()`` once feedback
        exists.
        """
        if not self.estimates:
            return None
        return min(value for _, value in self.estimates)


@dataclass
class Decisions:
    """What the lowering stage needs to know, one field per dimension."""

    agg_mode: str = CONDITIONAL
    merged_columns: Tuple[str, ...] = ()
    join_modes: Dict[PlanNode, str] = field(default_factory=dict)
    groupjoin_mode: Optional[str] = None  # P.GROUPJOIN | EAGER | None
    outer_mode: str = CONDITIONAL  # OuterGroupJoin count-delta mode
    has_outer: bool = False
    group_cardinality: int = 1
    #: Access-encoding choice: table -> ((column, codec description),
    #: ...) naming the columns the scan serves as physical codes, with
    #: decode deferred to materialization points. Lowering stamps these
    #: onto the table's pipelines.
    encodings: Dict[str, Tuple[Tuple[str, str], ...]] = field(
        default_factory=dict
    )
    #: Physical scan width of every encoded column — what the cost
    #: model should price a sequential read of that column at.
    encoded_widths: Dict[Tuple[str, str], int] = field(
        default_factory=dict
    )
    #: Statistics the root decisions were priced with (after any
    #: :class:`~repro.engine.costing.StatsOverride`); the adaptive
    #: re-optimizer compares these against measured values to detect
    #: drift. Informational — :meth:`describe` does not render them.
    estimated_stats: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        parts = [f"aggregation={self.agg_mode}"]
        if self.merged_columns:
            parts.append(f"access_merging={list(self.merged_columns)}")
        for join, mode in self.join_modes.items():
            parts.append(f"join({join.fk_column})={mode}")
        if self.groupjoin_mode is not None:
            parts.append(f"groupjoin={self.groupjoin_mode}")
        if self.has_outer:
            parts.append(f"outer_groupjoin={self.outer_mode}")
        if self.encodings:
            encoded = {
                table: [column for column, _ in columns]
                for table, columns in sorted(self.encodings.items())
                if columns
            }
            if encoded:
                parts.append(f"encoded_scans={encoded}")
        return ", ".join(parts)


# ---------------------------------------------------------------------------
# Pass 1: bind dictionary literals
# ---------------------------------------------------------------------------


def _bind_expr(
    expr: Expr, table: str, db: Database, notes: List[PassNote]
) -> Expr:
    if isinstance(expr, DictEq):
        column = db.table(table).column(expr.column)
        try:
            code = column.code_for(expr.value)
        except StorageError:
            notes.append(
                PassNote(
                    "bind-dictionary-literals",
                    "folded",
                    f"{expr.column} == {expr.value!r}: not in dictionary, "
                    "always false",
                )
            )
            return InSet(Col(expr.column), ())
        notes.append(
            PassNote(
                "bind-dictionary-literals",
                "bound",
                f"{expr.column} == {expr.value!r} -> code {code}",
            )
        )
        return Compare(Col(expr.column), "==", Const(code))
    if isinstance(expr, DictIn):
        column = db.table(table).column(expr.column)
        codes = []
        for value in expr.values:
            try:
                codes.append(column.code_for(value))
            except StorageError:
                continue
        notes.append(
            PassNote(
                "bind-dictionary-literals",
                "bound",
                f"{expr.column} IN {list(expr.values)} -> "
                f"{len(codes)} codes",
            )
        )
        return InSet(Col(expr.column), tuple(codes))
    if isinstance(expr, DictPrefix):
        column = db.table(table).column(expr.column)
        if column.dictionary is None:
            raise PlanError(
                f"column {expr.column!r} has no dictionary to prefix-match"
            )
        codes = tuple(
            code
            for code, text in enumerate(column.dictionary)
            if text.startswith(expr.prefix)
        )
        notes.append(
            PassNote(
                "bind-dictionary-literals",
                "bound",
                f"{expr.column} LIKE {expr.prefix!r}% -> {len(codes)} of "
                f"{len(column.dictionary)} codes",
            )
        )
        return InSet(Col(expr.column), codes)
    if isinstance(expr, Compare):
        return Compare(
            _bind_expr(expr.left, table, db, notes),
            expr.op,
            _bind_expr(expr.right, table, db, notes),
        )
    if isinstance(expr, Arith):
        return Arith(
            expr.op,
            _bind_expr(expr.left, table, db, notes),
            _bind_expr(expr.right, table, db, notes),
        )
    if isinstance(expr, And):
        return And([_bind_expr(t, table, db, notes) for t in expr.terms])
    if isinstance(expr, Or):
        return Or([_bind_expr(t, table, db, notes) for t in expr.terms])
    if isinstance(expr, Case):
        return Case(
            [
                (
                    _bind_expr(cond, table, db, notes),
                    _bind_expr(value, table, db, notes),
                )
                for cond, value in expr.branches
            ],
            _bind_expr(expr.default, table, db, notes),
        )
    if isinstance(expr, InSet):
        return InSet(_bind_expr(expr.child, table, db, notes), expr.values)
    return expr


def _bind_node(
    node: PlanNode, db: Database, notes: List[PassNote]
) -> PlanNode:
    if isinstance(node, Scan):
        return node
    if isinstance(node, Filter):
        child = _bind_node(node.child, db, notes)
        table = base_table(child)
        return Filter(child, _bind_expr(node.predicate, table, db, notes))
    if isinstance(node, Project):
        child = _bind_node(node.child, db, notes)
        table = base_table(child)
        return Project(
            child,
            [
                (name, _bind_expr(expr, table, db, notes))
                for name, expr in node.outputs
            ],
        )
    if isinstance(node, (Join, ExistsJoin, OuterGroupJoin)):
        return replace(
            node,
            probe=_bind_node(node.probe, db, notes),
            build=_bind_node(node.build, db, notes),
        )
    if isinstance(node, DisjunctJoin):
        probe = _bind_node(node.probe, db, notes)
        build = _bind_node(node.build, db, notes)
        probe_table = base_table(probe)
        build_table = base_table(build)
        disjuncts = tuple(
            (
                _bind_expr(build_pred, build_table, db, notes),
                _bind_expr(probe_pred, probe_table, db, notes),
            )
            for build_pred, probe_pred in node.disjuncts
        )
        return replace(
            node, probe=probe, build=build, disjuncts=disjuncts
        )
    if isinstance(node, GroupByAgg):
        child = _bind_node(node.child, db, notes)
        table = base_table(child)
        aggregates = tuple(
            replace(agg, expr=_bind_expr(agg.expr, table, db, notes))
            if agg.expr is not None
            else agg
            for agg in node.aggregates
        )
        key = (
            _bind_expr(node.key, table, db, notes)
            if node.key is not None
            else None
        )
        return GroupByAgg(
            child=child,
            aggregates=aggregates,
            key=key,
            key_name=node.key_name,
        )
    raise PlanError(f"unknown plan node {node!r}")


# ---------------------------------------------------------------------------
# Statistics over the tree (prefix samples, like plan.logical.sample_stats)
# ---------------------------------------------------------------------------


@dataclass
class SpineStats:
    """Sampled statistics for one probe spine (a pipeline-to-be)."""

    table: str
    num_rows: int
    local_selectivity: float  # spine filters only
    match_fraction: float  # product of semijoin survival fractions

    @property
    def survival(self) -> float:
        """Fraction of scanned rows that reach the spine's consumer."""
        return self.local_selectivity * self.match_fraction


def _sample(db: Database, table: str) -> Dict[str, np.ndarray]:
    data = db.data(table)
    return {name: values[:_SAMPLE_ROWS] for name, values in data.items()}


def _local_selectivity(node: PlanNode, db: Database) -> float:
    """Selectivity of the spine's filters over a base-table prefix sample.

    Conjuncts referencing columns the base table does not have (carried
    or projected columns) contribute 1.0 — the join-match fraction
    accounts for those rows separately.
    """
    table = base_table(node)
    sample = _sample(db, table)
    if not sample or not next(iter(sample.values())).shape[0]:
        return 1.0
    selectivity = 1.0
    for term in spine_filters(node):
        if not term.columns() <= set(sample):
            continue
        selectivity *= float(
            np.asarray(term.evaluate(sample), dtype=bool).mean()
        )
    return selectivity


def spine_stats(node: PlanNode, db: Database) -> SpineStats:
    """Sampled statistics for a subtree's probe spine.

    The match fraction of a semijoin is the build side's *survival*
    fraction: with uniform FK references (true of all generated data),
    the probability a probe row's FK hits a surviving build row equals
    the fraction of build rows that survive.
    """
    table = base_table(node)
    num_rows = db.table(table).num_rows
    match = 1.0
    for step in spine(node):
        if isinstance(step, Join):
            match *= spine_stats(step.build, db).survival
        elif isinstance(step, ExistsJoin):
            # P(some referencing build row survives) under uniform FK
            # fan-out: 1 - (1 - s)^(builds per probe row).
            build = spine_stats(step.build, db)
            fanout = build.num_rows / max(num_rows, 1)
            miss = (1.0 - build.survival) ** fanout
            match *= miss if step.anti else 1.0 - miss
        elif isinstance(step, DisjunctJoin):
            match *= _disjunct_match_fraction(step, db)
        # OuterGroupJoin rekeys the stream rather than filtering it;
        # its statistics belong to the distribution scan, not here.
    return SpineStats(
        table=table,
        num_rows=num_rows,
        local_selectivity=_local_selectivity(node, db),
        match_fraction=match,
    )


def _override_stats(
    stats: SpineStats, overrides: Optional[StatsOverride]
) -> SpineStats:
    """Replace sampled spine statistics with measured ones, when given.

    A measured ``selectivity`` is the observed survival of the probe
    spine, so it substitutes for the sampled local selectivity (the
    match fraction stays unless measured separately).
    """
    if overrides is None:
        return stats
    local = (
        overrides.selectivity
        if overrides.selectivity is not None
        else stats.local_selectivity
    )
    match = (
        overrides.match_fraction
        if overrides.match_fraction is not None
        else stats.match_fraction
    )
    return SpineStats(
        table=stats.table,
        num_rows=stats.num_rows,
        local_selectivity=local,
        match_fraction=match,
    )


def _disjunct_match_fraction(join: DisjunctJoin, db: Database) -> float:
    """Sampled probability a probe row survives some disjunct."""
    build_sample = _sample(db, base_table(join.build))
    probe_sample = _sample(db, base_table(join.probe))
    if not build_sample or not probe_sample:
        return 1.0
    miss = 1.0
    for build_pred, probe_pred in join.disjuncts:
        build_sel = probe_sel = 1.0
        if build_pred.columns() <= set(build_sample):
            build_sel = float(
                np.asarray(
                    build_pred.evaluate(build_sample), dtype=bool
                ).mean()
            )
        if probe_pred.columns() <= set(probe_sample):
            probe_sel = float(
                np.asarray(
                    probe_pred.evaluate(probe_sample), dtype=bool
                ).mean()
            )
        miss *= 1.0 - build_sel * probe_sel
    return max(1.0 - miss, 0.0)


def _width_of(
    db: Database,
    table: str,
    column: str,
    decisions: Optional[Decisions] = None,
) -> int:
    """Physical byte width a scan of ``column`` streams at.

    When the access-encoding pass chose to serve the column as codes,
    the scan streams the *code* width, and every downstream cost
    estimate should price reads at that width. Derived (carried or
    projected) columns are 8 bytes.
    """
    if decisions is not None:
        encoded = decisions.encoded_widths.get((table, column))
        if encoded is not None:
            return encoded
    table_obj = db.table(table)
    if column in table_obj:
        return int(table_obj[column].dtype.itemsize)
    return 8


def _carried_origin_table(
    node: PlanNode, db: Database, column: str
) -> Optional[str]:
    """The base table that physically stores a (possibly carried) column.

    A group key over a carried column (Q5 groups lineitem by the
    carried ``s_nationkey``) is sampled on the build-side table the
    carry chain bottoms out in.
    """
    table = base_table(node)
    if column in db.table(table):
        return table
    for join in all_joins(node):
        if column in join.carry:
            found = _carried_origin_table(join.build, db, column)
            if found is not None:
                return found
    return None


def _group_cardinality(
    root: GroupByAgg, db: Database, table: str
) -> int:
    if root.key is None:
        return 1
    sample = _sample(db, table)
    if not root.key.columns() <= set(sample):
        key_cols = tuple(root.key.columns())
        origin = (
            _carried_origin_table(root.child, db, key_cols[0])
            if len(key_cols) == 1
            else None
        )
        if origin is None:
            return 1
        table = origin
        sample = _sample(db, table)
    take = int(next(iter(sample.values())).shape[0])
    if not take:
        return 1
    keys = np.asarray(root.key.evaluate(sample))
    cardinality = int(np.unique(keys).shape[0])
    num_rows = db.table(table).num_rows
    if take < num_rows:
        # Prefix samples under-count distinct values; extrapolate with
        # the standard birthday-style estimator (cf. sample_stats).
        if cardinality / take > 0.95:
            cardinality = int(cardinality * num_rows / take)
    return max(cardinality, 1)


def _root_model_inputs(
    root: GroupByAgg,
    db: Database,
    stats: SpineStats,
    decisions: Optional[Decisions] = None,
) -> cm.ModelInputs:
    """Model inputs for the terminal aggregation decision."""
    table = stats.table
    pred_widths = tuple(
        _width_of(db, table, name, decisions)
        for conj in spine_filters(root.child)
        for name in sorted(conj.columns())
    )
    agg_widths = tuple(
        _width_of(db, table, name, decisions)
        for agg in root.aggregates
        if agg.expr is not None
        for name in col_refs(agg.expr)
    )
    agg_ops: Tuple[str, ...] = ()
    for agg in root.aggregates:
        if agg.expr is not None:
            from .expressions import arith_ops

            agg_ops += arith_ops(agg.expr)
    merged = merged_columns(root)
    merged_widths = tuple(
        _width_of(db, table, name, decisions) for name in merged
    )
    key_cols = tuple(sorted(root.key.columns())) if root.key else ()
    group_width = max(
        (_width_of(db, table, name, decisions) for name in key_cols),
        default=8,
    )
    return cm.ModelInputs(
        num_rows=stats.num_rows,
        # Combined selectivity: the masked/conditional aggregation sees
        # rows surviving both local filters and upstream semijoins.
        selectivity=stats.survival,
        pred_widths=pred_widths,
        agg_widths=agg_widths,
        agg_ops=agg_ops,
        num_aggs=len(root.aggregates),
        group_width=group_width,
        group_cardinality=_group_cardinality(root, db, table),
        merged_widths=merged_widths,
    )


def merged_columns(root: GroupByAgg) -> Tuple[str, ...]:
    """Columns read by both the spine filters and an aggregate (§III-C)."""
    pred_cols = set()
    for term in spine_filters(root.child):
        pred_cols |= term.columns()
    agg_cols = set()
    for agg in root.aggregates:
        if agg.expr is not None:
            agg_cols |= agg.expr.columns()
    return tuple(sorted(pred_cols & agg_cols))


# ---------------------------------------------------------------------------
# Access-encoding pass (all strategies)
# ---------------------------------------------------------------------------


def _referenced_columns(node: PlanNode) -> set:
    """Every column name a subtree's pipelines will physically read."""
    cols: set = set()
    for term in spine_filters(node):
        cols |= term.columns()
    for step in spine(node):
        if isinstance(step, JOIN_NODES):
            cols.add(step.fk_column)
            cols.add(step.pk_column)
            cols |= _referenced_columns(step.build)
        if isinstance(step, Join):
            cols |= set(step.carry)
        elif isinstance(step, DisjunctJoin):
            for build_pred, probe_pred in step.disjuncts:
                cols |= build_pred.columns() | probe_pred.columns()
    return cols


def _pass_access_encoding(
    root: GroupByAgg,
    db: Database,
    machine: MachineModel,
    decisions: Decisions,
    notes: List[PassNote],
    stats: SpineStats,
) -> None:
    """Choose compressed vs decoded scans, per referenced column.

    Every codec here is value-preserving in code space (dictionary
    predicates were already translated to codes by the binding pass;
    null-suppressed ints and fixed-point decimals compare as the same
    integers at narrower width), so any predicate a decoded scan could
    answer, the encoded scan answers too. The choice is therefore
    purely cost-based: stream the narrow codes and pay a decode at each
    materialization point, or stream the decoded values. Runs for all
    strategies — access encoding is orthogonal to operator choice.
    """
    referenced = _referenced_columns(root.child)
    for agg in root.aggregates:
        if agg.expr is not None:
            referenced |= agg.expr.columns()
    if root.key is not None:
        referenced |= root.key.columns()

    tables: List[str] = []

    def walk(node: PlanNode) -> None:
        for step in spine(node):
            if isinstance(step, JOIN_NODES):
                walk(step.build)
        table = base_table(node)
        if table not in tables:
            tables.append(table)

    walk(root.child)

    for table in tables:
        table_obj = db.table(table)
        num_rows = table_obj.num_rows
        # The probe spine's survival bounds how many decoded values
        # ever materialize; build pipelines decode their full survivor
        # set, so price their decode term conservatively at 1.0.
        selectivity = stats.survival if table == stats.table else 1.0
        chosen: List[Tuple[str, str]] = []
        decoded: List[str] = []
        encoded_total = decoded_total = 0.0
        for col in table_obj.iter_columns():
            if col.name not in referenced:
                continue
            enc = col.encoding
            if not enc.compressed:
                continue
            enc_cost = cm.encoded_scan_cost(
                machine, num_rows, enc.width, selectivity
            )
            dec_cost = cm.decoded_scan_cost(
                machine, num_rows, enc.decoded_width
            )
            if enc_cost < dec_cost:
                chosen.append((col.name, enc.describe()))
                decisions.encoded_widths[(table, col.name)] = enc.width
                encoded_total += enc_cost
                decoded_total += dec_cost
            else:
                decoded.append(col.name)
        if chosen:
            decisions.encodings[table] = tuple(chosen)
            detail = (
                f"{table}: scan "
                f"{[f'{name} {desc}' for name, desc in chosen]} "
                "in code space, decode at materialization"
            )
            if decoded:
                detail += f"; {decoded} decode early"
            notes.append(
                PassNote(
                    "access-encoding",
                    "applied",
                    detail,
                    estimates=(
                        ("encoded", encoded_total),
                        ("decoded", decoded_total),
                    ),
                )
            )
        else:
            notes.append(
                PassNote(
                    "access-encoding",
                    "declined",
                    f"{table}: no referenced column compresses below "
                    "its stored width",
                )
            )


# ---------------------------------------------------------------------------
# Strategy passes
# ---------------------------------------------------------------------------


def _build_is_filtered_scan(node: PlanNode) -> bool:
    """Eager aggregation precondition: build side is Filter*(Scan)."""
    while isinstance(node, Filter):
        node = node.child
    return isinstance(node, Scan)


def _build_filters(node: PlanNode) -> bool:
    """Whether a build subtree restricts its stream at all."""
    return bool(spine_filters(node)) or bool(spine_joins(node))


def all_joins(node: PlanNode) -> Tuple[Join, ...]:
    """Every join in a subtree, build-nested joins before their owner."""
    found: List[Join] = []
    for join in spine_joins(node):
        found.extend(all_joins(join.build))
        found.append(join)
    return tuple(found)


def _pass_bitmap_semijoins(
    root: GroupByAgg,
    db: Database,
    machine: MachineModel,
    decisions: Decisions,
    notes: List[PassNote],
    overrides: Optional[StatsOverride] = None,
) -> None:
    """§III-D: replace hash semijoins with positional bitmaps.

    Visits *every* join in the tree — including ones on build-side
    spines (Q3's customer semijoin feeds the orders build pipeline) —
    not just the probe spine.
    """
    joins = spine_joins(root.child)
    groupjoin_target = (
        joins[-1] if joins and is_groupjoin(root) else None
    )
    for join in all_joins(root.child):
        if join is groupjoin_target:
            continue
        if not join.is_semijoin and not _build_filters(join.build):
            # An unfiltered index join (Q14's part lookup) keeps its
            # direct FK-index gather: a bitmap would cost a build scan
            # without filtering anything.
            notes.append(
                PassNote(
                    "bitmap-semijoin",
                    "declined",
                    f"{join.fk_column} index join has an unfiltered "
                    "build side; direct FK gather",
                )
            )
            continue
        probe_table = base_table(join.probe)
        if not db.has_fk_index(probe_table, join.fk_column):
            notes.append(
                PassNote(
                    "bitmap-semijoin",
                    "declined",
                    f"no FK index on {probe_table}.{join.fk_column}",
                )
            )
            continue
        build = spine_stats(join.build, db)
        inputs = cm.ModelInputs(
            num_rows=db.table(probe_table).num_rows,
            selectivity=1.0,
            build_rows=build.num_rows,
            build_selectivity=build.survival,
            build_pred_widths=tuple(
                _width_of(db, build.table, name, decisions)
                for conj in spine_filters(join.build)
                for name in sorted(conj.columns())
            ),
        )
        mode, estimates = P.choose_semijoin_build(machine, inputs)
        decisions.join_modes[join] = mode
        kind = (
            "semijoin"
            if join.is_semijoin
            else f"carry join, {list(join.carry)} gathered late"
        )
        notes.append(
            PassNote(
                "bitmap-semijoin",
                "applied",
                f"{probe_table}.{join.fk_column} {kind} -> positional "
                f"bitmap, {mode} build",
                estimates=tuple(sorted(estimates.items())),
            )
        )


def _pass_groupjoin(
    root: GroupByAgg,
    db: Database,
    machine: MachineModel,
    decisions: Decisions,
    notes: List[PassNote],
    overrides: Optional[StatsOverride] = None,
) -> None:
    """§III-E: eager-aggregation rewrite of the terminal groupjoin."""
    if not is_groupjoin(root):
        return
    joins = spine_joins(root.child)
    target = joins[-1]
    probe = _override_stats(spine_stats(root.child, db), overrides)
    build = spine_stats(target.build, db)
    if not _build_is_filtered_scan(target.build):
        decisions.groupjoin_mode = P.GROUPJOIN
        notes.append(
            PassNote(
                "eager-aggregation",
                "declined",
                "build side is not a filtered scan; keeping the "
                "hash groupjoin",
            )
        )
        return
    table = probe.table
    inputs = cm.ModelInputs(
        num_rows=probe.num_rows,
        selectivity=probe.local_selectivity,
        pred_widths=tuple(
            _width_of(db, table, name, decisions)
            for conj in spine_filters(root.child)
            for name in sorted(conj.columns())
        ),
        agg_widths=tuple(
            _width_of(db, table, name, decisions)
            for agg in root.aggregates
            if agg.expr is not None
            for name in col_refs(agg.expr)
        ),
        agg_ops=_root_model_inputs(root, db, probe, decisions).agg_ops,
        num_aggs=len(root.aggregates),
        build_rows=build.num_rows,
        build_selectivity=build.local_selectivity,
        build_pred_widths=tuple(
            _width_of(db, build.table, name, decisions)
            for conj in spine_filters(target.build)
            for name in sorted(conj.columns())
        ),
        pk_width=_width_of(db, build.table, target.pk_column, decisions),
        fk_width=_width_of(db, table, target.fk_column, decisions),
        join_match_fraction=build.local_selectivity,
    )
    mode, estimates = P.choose_groupjoin_mode(machine, inputs)
    decisions.groupjoin_mode = mode
    action = "applied" if mode == EAGER else "declined"
    detail = (
        "aggregate before the join, delete-cleanup after"
        if mode == EAGER
        else "hash groupjoin is cheaper on these statistics"
    )
    notes.append(
        PassNote(
            "eager-aggregation",
            action,
            detail,
            estimates=tuple(sorted(estimates.items())),
        )
    )


def _pass_aggregation(
    root: GroupByAgg,
    db: Database,
    machine: MachineModel,
    decisions: Decisions,
    notes: List[PassNote],
    overrides: Optional[StatsOverride] = None,
) -> None:
    """§III-A/§III-B: masked aggregation vs the hybrid fallback."""
    if decisions.groupjoin_mode is not None:
        # The groupjoin pass owns the terminal aggregation; the probe
        # adds into the build-side hash table either way.
        decisions.agg_mode = GATHERED
        return
    if decisions.has_outer:
        # An outer groupjoin rekeys the stream: the terminal grouping
        # runs over its count table (the distribution scan), which the
        # outer-groupjoin pass owns.
        decisions.agg_mode = GATHERED
        return
    stats = _override_stats(spine_stats(root.child, db), overrides)
    inputs = _root_model_inputs(root, db, stats, decisions)
    if overrides is not None and overrides.group_cardinality is not None:
        inputs = replace(
            inputs, group_cardinality=max(overrides.group_cardinality, 1)
        )
    decisions.group_cardinality = inputs.group_cardinality
    carried = _carried_columns(root)
    if root.key is None:
        choice, estimates = P.choose_aggregation_scalar(machine, inputs)
    else:
        choice, estimates = P.choose_aggregation_grouped(machine, inputs)
    mode = {
        P.HYBRID: GATHERED,
        P.VALUE_MASKING: VALUE_MASK,
        P.KEY_MASKING: KEY_MASK,
    }[choice]
    if mode in (VALUE_MASK, KEY_MASK) and carried:
        # Carried columns only exist for index-matched rows; masked
        # (unconditional) evaluation would read values that were never
        # gathered. Fall back to the selective path.
        notes.append(
            PassNote(
                "aggregation",
                "declined",
                f"masked evaluation needs full columns, but "
                f"{list(carried)} are index-carried; falling back to "
                "gathered",
                estimates=tuple(sorted(estimates.items())),
            )
        )
        decisions.agg_mode = GATHERED
        return
    decisions.agg_mode = mode
    action = "retained" if mode == GATHERED else "applied"
    detail = {
        GATHERED: "hybrid pushdown aggregation is cheapest",
        VALUE_MASK: "evaluate unconditionally, mask non-qualifying rows",
        KEY_MASK: "blend non-qualifying keys to the throwaway slot",
    }[mode]
    notes.append(
        PassNote(
            "aggregation",
            action,
            detail,
            estimates=tuple(sorted(estimates.items())),
        )
    )


def _carried_columns(root: GroupByAgg) -> Tuple[str, ...]:
    carried = set()
    for join in spine_joins(root.child):
        carried |= set(join.carry)
    used = set()
    for agg in root.aggregates:
        if agg.expr is not None:
            used |= agg.expr.columns()
    if root.key is not None:
        used |= root.key.columns()
    return tuple(sorted(carried & used))


def _pass_access_merging(
    root: GroupByAgg,
    db: Database,
    machine: MachineModel,
    decisions: Decisions,
    notes: List[PassNote],
    overrides: Optional[StatsOverride] = None,
) -> None:
    """§III-C: share reads between the prepass and the aggregation."""
    if decisions.agg_mode not in (VALUE_MASK, KEY_MASK):
        return
    merged = merged_columns(root)
    if not merged:
        return
    decisions.merged_columns = merged
    notes.append(
        PassNote(
            "access-merging",
            "applied",
            f"columns {list(merged)} read once for predicate and "
            "aggregate ('always better')",
        )
    )


def _pass_exists(
    root: GroupByAgg,
    db: Database,
    machine: MachineModel,
    decisions: Decisions,
    notes: List[PassNote],
    overrides: Optional[StatsOverride] = None,
) -> None:
    """Existential/anti semijoin (Q4): positional bitmap over the probe.

    The build side is the FK (large) side, so the bitmap is indexed by
    *probe* row position and set through the build table's FK index —
    the probe then tests one bit per row instead of probing a hash
    table of FK keys.
    """
    for step in spine(root.child):
        if not isinstance(step, ExistsJoin):
            continue
        build_table = base_table(step.build)
        probe_table = base_table(step.probe)
        if not db.has_fk_index(build_table, step.fk_column):
            notes.append(
                PassNote(
                    "exists-bitmap",
                    "declined",
                    f"no FK index on {build_table}.{step.fk_column}; "
                    "hash build over qualifying FK keys",
                )
            )
            continue
        build = spine_stats(step.build, db)
        inputs = cm.ModelInputs(
            num_rows=db.table(probe_table).num_rows,
            selectivity=1.0,
            build_rows=build.num_rows,
            build_selectivity=build.survival,
            build_pred_widths=tuple(
                _width_of(db, build.table, name, decisions)
                for conj in spine_filters(step.build)
                for name in sorted(conj.columns())
            ),
        )
        mode, estimates = P.choose_semijoin_build(machine, inputs)
        decisions.join_modes[step] = mode
        kind = "anti" if step.anti else "exists"
        notes.append(
            PassNote(
                "exists-bitmap",
                "applied",
                f"{probe_table}.{step.pk_column} {kind} semijoin -> "
                f"positional bitmap over probe rows, {mode} build",
                estimates=tuple(sorted(estimates.items())),
            )
        )


def _pass_outer_groupjoin(
    root: GroupByAgg,
    db: Database,
    machine: MachineModel,
    decisions: Decisions,
    notes: List[PassNote],
    overrides: Optional[StatsOverride] = None,
) -> None:
    """Outer groupjoin (Q13): masked count deltas vs selective counts.

    Unmatched build rows are preserved either way — the distribution
    scan folds hash-table misses into the zero bucket. The choice here
    is how the probe stream feeds the count table.
    """
    for step in spine(root.child):
        if not isinstance(step, OuterGroupJoin):
            continue
        probe = spine_stats(step.probe, db)
        build_table = base_table(step.build)
        inputs = cm.ModelInputs(
            num_rows=probe.num_rows,
            selectivity=probe.survival,
            pred_widths=tuple(
                _width_of(db, probe.table, name, decisions)
                for conj in spine_filters(step.probe)
                for name in sorted(conj.columns())
            ),
            num_aggs=1,
            group_width=_width_of(
                db, probe.table, step.fk_column, decisions
            ),
            group_cardinality=db.table(build_table).num_rows,
        )
        choice, estimates = P.choose_aggregation_grouped(machine, inputs)
        decisions.outer_mode = {
            P.HYBRID: GATHERED,
            P.VALUE_MASKING: VALUE_MASK,
            P.KEY_MASKING: KEY_MASK,
        }[choice]
        action = (
            "retained" if decisions.outer_mode == GATHERED else "applied"
        )
        notes.append(
            PassNote(
                "outer-groupjoin",
                action,
                f"count {probe.table} rows per {build_table} key with "
                f"{decisions.outer_mode} deltas; unmatched keys fold "
                "into the zero bucket",
                estimates=tuple(sorted(estimates.items())),
            )
        )


def _pass_disjunct(
    root: GroupByAgg,
    db: Database,
    machine: MachineModel,
    decisions: Decisions,
    notes: List[PassNote],
    overrides: Optional[StatsOverride] = None,
) -> None:
    """Disjunctive join filter (Q19): N bitmaps from one build scan.

    Each disjunct's build-side conjunction becomes one positional
    bitmap; all bitmaps are filled in a single sequential pass over the
    build table, and the probe tests its FK bit per disjunct alongside
    the matching probe-side predicate.
    """
    for step in spine(root.child):
        if not isinstance(step, DisjunctJoin):
            continue
        probe_table = base_table(step.probe)
        build_table = base_table(step.build)
        if not db.has_fk_index(probe_table, step.fk_column):
            notes.append(
                PassNote(
                    "disjunct-bitmaps",
                    "declined",
                    f"no FK index on {probe_table}.{step.fk_column}; "
                    "per-row index probes into the build table",
                )
            )
            continue
        build = spine_stats(step.build, db)
        build_cols = sorted(
            {
                name
                for build_pred, _ in step.disjuncts
                for name in build_pred.columns()
            }
        )
        inputs = cm.ModelInputs(
            num_rows=db.table(probe_table).num_rows,
            selectivity=1.0,
            build_rows=build.num_rows,
            build_selectivity=_disjunct_match_fraction(step, db),
            build_pred_widths=tuple(
                _width_of(db, build_table, name, decisions)
                for name in build_cols
            ),
        )
        _, estimates = P.choose_semijoin_build(machine, inputs)
        decisions.join_modes[step] = BITMAP_MASK
        notes.append(
            PassNote(
                "disjunct-bitmaps",
                "applied",
                f"{len(step.disjuncts)} disjunct bitmaps over "
                f"{build_table} filled by one sequential scan; "
                "per-disjunct probe access merged",
                estimates=tuple(sorted(estimates.items())),
            )
        )


#: Swole pass pipeline, in order. A new §III technique lands by
#: appending its pass function here (see DESIGN.md for the contract).
_SWOLE_PASSES = (
    _pass_bitmap_semijoins,
    _pass_exists,
    _pass_disjunct,
    _pass_groupjoin,
    _pass_outer_groupjoin,
    _pass_aggregation,
    _pass_access_merging,
)


#: Every strategy :func:`run_passes` has a pass pipeline for.
STRATEGIES = ("interpreter", "datacentric", "hybrid", "swole")


def run_passes(
    plan: LogicalPlan,
    db: Database,
    machine: MachineModel,
    strategy: str,
    overrides: Optional[StatsOverride] = None,
    encoding: str = "auto",
) -> Tuple[LogicalPlan, Decisions, List[PassNote]]:
    """Run the strategy's pass pipeline over ``plan``.

    ``overrides`` replaces the prefix-sampled statistics of the probe
    spine with measured ones (the adaptive re-optimizer's hook): every
    cost-guided pass prices its candidates with the measured values,
    and ``decisions.estimated_stats`` records what the plan was priced
    with so later drift checks compare against it.

    ``encoding`` controls the access-encoding pass: ``"auto"`` chooses
    compressed vs decoded scans per referenced column by cost,
    ``"off"`` serves every scan decoded (the pre-compression access
    path, kept for apples-to-apples oracle comparison).

    Returns the bound plan, the lowering decisions, and the pass notes.
    """
    if encoding not in ("auto", "off"):
        raise PlanError(f"unknown encoding mode {encoding!r}")
    validate(plan)
    notes: List[PassNote] = []
    bound_root = _bind_node(plan.root, db, notes)
    bound = LogicalPlan(name=plan.name, root=bound_root)
    validate(bound)
    root = bound.root
    assert isinstance(root, GroupByAgg)

    decisions = Decisions()
    decisions.join_modes = {
        join: HASH_JOIN for join in spine_joins(root.child)
    }
    decisions.group_cardinality = _group_cardinality(
        root, db, base_table(root.child)
    )
    if overrides is not None and overrides.group_cardinality is not None:
        decisions.group_cardinality = max(overrides.group_cardinality, 1)
    if is_groupjoin(root):
        decisions.groupjoin_mode = P.GROUPJOIN
    decisions.has_outer = any(
        isinstance(step, OuterGroupJoin) for step in spine(root.child)
    )
    stats = _override_stats(spine_stats(root.child, db), overrides)
    decisions.estimated_stats = {
        "local_selectivity": stats.local_selectivity,
        "match_fraction": stats.match_fraction,
        "survival": stats.survival,
        "group_cardinality": float(decisions.group_cardinality),
    }

    if strategy in ("interpreter", "datacentric"):
        decisions.agg_mode = CONDITIONAL
        decisions.outer_mode = CONDITIONAL
        notes.append(
            PassNote(
                "pushdown",
                "retained",
                "predicates stay at the scan; tuple-at-a-time branches "
                "(HyPer-style)"
                + (
                    " under a Volcano interpreter"
                    if strategy == "interpreter"
                    else ""
                ),
            )
        )
    elif strategy == "hybrid":
        decisions.agg_mode = GATHERED
        decisions.outer_mode = GATHERED
        notes.append(
            PassNote(
                "pushdown",
                "retained",
                "vectorized prepass + selection vectors at the scan "
                "(Tupleware-style)",
            )
        )
    elif strategy == "swole":
        for pass_fn in _SWOLE_PASSES:
            pass_fn(root, db, machine, decisions, notes, overrides)
    else:
        raise PlanError(
            f"unknown strategy {strategy!r}; have {list(STRATEGIES)}"
        )

    # Access-encoding runs last: the operator/mode choices above are
    # priced at stored widths (identical plans whichever way the knob
    # points), then each referenced column independently picks the
    # cheaper physical stream for the plan that will actually run.
    if encoding == "auto":
        _pass_access_encoding(root, db, machine, decisions, notes, stats)
    else:
        notes.append(
            PassNote(
                "access-encoding",
                "off",
                "serving decoded value streams (encoding knob off)",
            )
        )
    return bound, decisions, notes


def spine_tables(plan: LogicalPlan) -> Tuple[str, ...]:
    """Base tables of every pipeline the plan will lower to, probe last.

    Shared build subtrees (Q5 reaches the nation/region chain through
    both customer and supplier) are deduplicated, matching the lowered
    pipeline list.
    """
    tables: List[str] = []
    seen = set()

    def walk(node: PlanNode) -> None:
        for step in spine(node):
            if isinstance(step, JOIN_NODES):
                walk(step.build)
        table = base_table(node)
        if table not in seen:
            seen.add(table)
            tables.append(table)

    root = plan.root
    walk(root.child if isinstance(root, GroupByAgg) else root)
    return tuple(tables)


__all__ = [
    "CONDITIONAL",
    "GATHERED",
    "VALUE_MASK",
    "KEY_MASK",
    "HASH_JOIN",
    "BITMAP_MASK",
    "BITMAP_OFFSETS",
    "EAGER",
    "Decisions",
    "PassNote",
    "STRATEGIES",
    "SpineStats",
    "merged_columns",
    "run_passes",
    "spine_stats",
    "spine_tables",
]
