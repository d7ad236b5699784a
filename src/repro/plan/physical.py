"""Physical plans — stage 3 of the staged lowering pipeline.

A :class:`PhysicalPlan` is a strategy-specific, executable shape:
an ordered list of :class:`Pipeline` objects (build pipelines first,
the probe pipeline last), each a sequence of physical operators over
one base table's column stream. The lowering stage
(:mod:`repro.codegen.lower`) produces it from a bound logical plan
plus the pass :class:`~repro.plan.passes.Decisions`; the kernel
emitter (:mod:`repro.codegen.vectorize`) generates one NumPy function
per pipeline from it, and the pricer (:mod:`repro.codegen.price`)
walks it again to turn what those kernels counted into the priced
access events.

The operator vocabulary is deliberately small — exactly the shapes the
paper's strategies generate:

========================  =================================================
operator                  lowers from
========================  =================================================
:class:`FilterStage`      Filter (branching or SIMD-prepass form)
:class:`SemiHashBuild`    semijoin build side (hash set of keys)
:class:`GroupBuild`       groupjoin build side (keys + aggregate slots)
:class:`BitmapBuild`      semijoin build side under §III-D
:class:`HashSemiProbe`    semijoin probe against a hash set
:class:`BitmapSemiProbe`  semijoin probe against a positional bitmap
:class:`ColumnMaterialize` build-side Project (full-length derived column)
:class:`IndexGather`      index join carrying build columns via FK index
:class:`GroupJoinAgg`     groupjoin probe adding straight into the build HT
:class:`ScalarAgg`        terminal scalar aggregation (per agg-mode)
:class:`GroupAgg`         terminal grouped aggregation (per agg-mode)
:class:`EagerAggregate`   groupjoin rewritten per §III-E (aggregate early,
                          delete-cleanup after)
:class:`ExistsBitmapBuild` ExistsJoin build under SWOLE: probe-positional
                          bitmap set through the build FK index
:class:`ExistsBitmapProbe` ExistsJoin probe: one bit test per probe row
:class:`JoinBuild`        carry-join build side: hash keys + payload
:class:`HashJoinCarryProbe` carry-join probe: narrow + attach payload
:class:`CarriedGather`    late materialization of bitmap-carried columns
:class:`OuterGroupJoinAgg` outer groupjoin probe: count deltas per FK
:class:`GroupDistribution` outer groupjoin tail: count-of-counts scan
                          folding unmatched build keys into bucket zero
:class:`MultiBitmapBuild` DisjunctJoin build: N bitmaps from one scan
:class:`DisjunctIndexProbe` DisjunctJoin probe via per-row FK index reads
:class:`DisjunctBitmapProbe` DisjunctJoin probe via the disjunct bitmaps
========================  =================================================

``access`` distinguishes tuple-at-a-time branching code (datacentric /
interpreter) from selection-vector code (hybrid / swole); the masked
aggregation modes come from :mod:`repro.plan.passes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .expressions import Expr, compare_count
from .ops import AggSpec

#: Access styles for non-terminal operators.
BRANCH = "branch"  # tuple-at-a-time, conditional reads, branch events
VECTOR = "vector"  # selection vectors + gathers


class PhysicalOp:
    """Base class of physical operators; ``describe`` feeds explain."""

    def describe(self) -> str:
        raise NotImplementedError


def _aggs_text(aggregates: Tuple[AggSpec, ...]) -> str:
    return ", ".join(
        f"{a.name}={a.func}"
        + (f"({a.expr.to_c()})" if a.expr is not None else "(*)")
        for a in aggregates
    )


@dataclass(frozen=True)
class FilterStage(PhysicalOp):
    """Predicate evaluation over the pipeline's stream.

    ``mode == "branch"``: short-circuit conjuncts, conditional reads and
    a branch per conjunct (the data-centric form). ``mode == "prepass"``:
    SIMD evaluation of every conjunct over the whole column, ANDed into
    a 0/1 mask (the hybrid/SWOLE form).
    """

    conjuncts: Tuple[Expr, ...]
    mode: str  # "branch" | "prepass"

    def describe(self) -> str:
        n_cmps = sum(max(compare_count(c), 1) for c in self.conjuncts)
        preds = " AND ".join(c.to_c() for c in self.conjuncts)
        return (
            f"Filter[{self.mode}] {preds} "
            f"({len(self.conjuncts)} conjuncts, {n_cmps} compares)"
        )


@dataclass(frozen=True)
class SemiHashBuild(PhysicalOp):
    """Terminal build op: hash set of surviving keys (semijoin).

    ``expected_from`` names the table whose row count sizes the hash
    table (an ExistsJoin build inserts FK values drawn from the *probe*
    table's key domain); empty means size by the surviving keys.
    """

    state: str
    key_column: str
    access: str = VECTOR
    expected_from: str = ""

    def describe(self) -> str:
        return (
            f"SemiHashBuild[{self.access}] keys={self.key_column} "
            f"-> ht[{self.state}]"
        )


@dataclass(frozen=True)
class GroupBuild(PhysicalOp):
    """Terminal build op: keys plus aggregate slots (hash groupjoin)."""

    state: str
    key_column: str
    num_aggs: int
    access: str = VECTOR

    def describe(self) -> str:
        return (
            f"GroupBuild[{self.access}] keys={self.key_column} "
            f"aggs={self.num_aggs}+count -> ht[{self.state}]"
        )


@dataclass(frozen=True)
class BitmapBuild(PhysicalOp):
    """Terminal build op: positional bitmap over build-row offsets.

    ``carry`` names stream columns stashed full-length alongside the
    bitmap; downstream pipelines materialize them late with
    :class:`CarriedGather` after all semijoin filtering.
    """

    state: str
    mode: str  # "mask" (unconditional write) | "offsets" (selective set)
    carry: Tuple[str, ...] = ()

    def describe(self) -> str:
        text = f"BitmapBuild[{self.mode}] -> bitmap[{self.state}]"
        if self.carry:
            text += f" carrying {list(self.carry)}"
        return text


@dataclass(frozen=True)
class HashSemiProbe(PhysicalOp):
    """Narrow the stream to rows whose FK hits the build hash set.

    ``negate`` inverts the test (anti-join: keep rows with *no* build
    partner).
    """

    state: str
    fk_column: str
    access: str = VECTOR
    negate: bool = False

    def describe(self) -> str:
        op = "not in" if self.negate else "in"
        return (
            f"HashSemiProbe[{self.access}] {self.fk_column} "
            f"{op} ht[{self.state}]"
        )


@dataclass(frozen=True)
class BitmapSemiProbe(PhysicalOp):
    """Narrow the stream by testing bits at FK-index offsets (§III-D)."""

    state: str
    fk_column: str

    def describe(self) -> str:
        return (
            f"BitmapSemiProbe {self.fk_column} via fkindex "
            f"-> bitmap[{self.state}]"
        )


@dataclass(frozen=True)
class ExistsBitmapBuild(PhysicalOp):
    """ExistsJoin build: set a probe-positional bit per surviving FK row.

    The build side is the FK (large) side; its FK index maps each
    surviving build row to the probe row it references, so the bitmap
    is indexed by probe position (`probe_table` sizes it).
    """

    state: str
    fk_column: str
    probe_table: str
    mode: str = "mask"  # "mask" | "offsets", as BitmapBuild

    def describe(self) -> str:
        return (
            f"ExistsBitmapBuild[{self.mode}] fkindex({self.fk_column}) "
            f"-> bitmap over {self.probe_table} rows [{self.state}]"
        )


@dataclass(frozen=True)
class ExistsBitmapProbe(PhysicalOp):
    """ExistsJoin probe: AND the stream mask with one bit per row."""

    state: str
    anti: bool = False

    def describe(self) -> str:
        kind = "anti" if self.anti else "exists"
        return f"ExistsBitmapProbe[{kind}] bitmap[{self.state}]"


@dataclass(frozen=True)
class JoinBuild(PhysicalOp):
    """Carry-join build: hash surviving keys plus payload columns.

    Like :class:`SemiHashBuild` but the probe later attaches ``carry``
    columns from the build stream (through the FK index) instead of
    only narrowing.
    """

    state: str
    key_column: str
    carry: Tuple[str, ...]
    access: str = VECTOR

    def describe(self) -> str:
        return (
            f"JoinBuild[{self.access}] keys={self.key_column} "
            f"payload={list(self.carry)} -> ht[{self.state}]"
        )


@dataclass(frozen=True)
class HashJoinCarryProbe(PhysicalOp):
    """Carry-join probe: narrow to matched rows, attach build payload."""

    state: str
    fk_column: str
    carry: Tuple[str, ...]
    access: str = VECTOR

    def describe(self) -> str:
        return (
            f"HashJoinCarryProbe[{self.access}] {self.fk_column} "
            f"in ht[{self.state}] attach {list(self.carry)}"
        )


@dataclass(frozen=True)
class CarriedGather(PhysicalOp):
    """Late materialization of bitmap-carried build columns.

    ``priced=False`` composes carried arrays through the FK index for
    free (build pipelines merely thread the values along);
    ``priced=True`` charges one random gather per surviving row — the
    point of late materialization is that this runs after *all*
    semijoin filtering.
    """

    state: str
    fk_column: str
    columns: Tuple[str, ...]
    priced: bool = True

    def describe(self) -> str:
        when = "after all semijoins" if self.priced else "composed free"
        return (
            f"CarriedGather {list(self.columns)} via "
            f"fkindex({self.fk_column}) from {self.state} ({when})"
        )


@dataclass(frozen=True)
class OuterGroupJoinAgg(PhysicalOp):
    """Outer groupjoin probe: count stream rows per build key.

    ``mode`` prices the count deltas: conditional reads, gathered
    reads, masked (unconditional) adds, or key-masked blends.
    """

    state: str
    fk_column: str
    count_name: str
    mode: str  # conditional | gathered | value_mask | key_mask
    build_table: str

    def describe(self) -> str:
        return (
            f"OuterGroupJoinAgg[{self.mode}] count by {self.fk_column} "
            f"over {self.build_table} keys -> ht[{self.state}]"
        )


@dataclass(frozen=True)
class GroupDistribution(PhysicalOp):
    """Outer groupjoin tail: group the per-key counts themselves.

    Scans the count table, folds build keys that never appeared
    (unmatched rows of the outer join) into the zero bucket, and
    aggregates count-of-counts (Q13's distribution).
    """

    state: str
    key_name: str
    agg_name: str

    def describe(self) -> str:
        return (
            f"GroupDistribution {self.agg_name} per {self.key_name} "
            f"from ht[{self.state}] (unmatched keys -> bucket 0)"
        )


@dataclass(frozen=True)
class MultiBitmapBuild(PhysicalOp):
    """DisjunctJoin build: one bitmap per disjunct from a single scan.

    Reads the union of build-side predicate columns once and fills
    ``len(disjuncts)`` positional bitmaps in the same pass (§III-F's
    three-bitmaps-from-one-scan shape).
    """

    state: str
    disjuncts: Tuple[Expr, ...]  # build-side conjunction per disjunct

    def describe(self) -> str:
        arms = "; ".join(d.to_c() for d in self.disjuncts)
        return (
            f"MultiBitmapBuild {len(self.disjuncts)} bitmaps from one "
            f"scan [{arms}] -> bitmaps[{self.state}]"
        )


@dataclass(frozen=True)
class DisjunctIndexProbe(PhysicalOp):
    """DisjunctJoin probe without bitmaps: per-row FK index lookups.

    For each surviving probe row, read the build row through the FK
    index and evaluate every (build_pred AND probe_pred) arm with
    short-circuit compares.
    """

    state: str
    fk_column: str
    disjuncts: Tuple[Tuple[Expr, Expr], ...]
    access: str = VECTOR

    def describe(self) -> str:
        return (
            f"DisjunctIndexProbe[{self.access}] {self.fk_column} -> "
            f"{self.state} rows, {len(self.disjuncts)} disjuncts"
        )


@dataclass(frozen=True)
class DisjunctBitmapProbe(PhysicalOp):
    """DisjunctJoin probe against the per-disjunct bitmaps.

    Tests one bit per disjunct at the FK-index offset and ANDs each
    with its probe-side predicate; a row survives if any arm holds.
    """

    state: str
    fk_column: str
    disjuncts: Tuple[Tuple[Expr, Expr], ...]

    def describe(self) -> str:
        return (
            f"DisjunctBitmapProbe {self.fk_column} over "
            f"{len(self.disjuncts)} bitmaps[{self.state}]"
        )


@dataclass(frozen=True)
class ColumnMaterialize(PhysicalOp):
    """Evaluate a derived column over the whole table into state.

    Build-side Projects lower to this (Q14's dictionary-driven ``promo``
    flag); probe pipelines later gather it through the FK index.
    """

    state: str
    column: str
    expr: Expr
    lut_entries: int = 0  # dictionary size when the expr is a dict probe

    def describe(self) -> str:
        text = f"ColumnMaterialize {self.column} = {self.expr.to_c()}"
        if self.lut_entries:
            text += f" (LUT over {self.lut_entries} codes)"
        return text + f" -> {self.state}.{self.column}"


@dataclass(frozen=True)
class IndexGather(PhysicalOp):
    """Pull carried build columns into the stream via the FK index."""

    state: str
    fk_column: str
    columns: Tuple[str, ...]
    access: str = VECTOR

    def describe(self) -> str:
        return (
            f"IndexGather[{self.access}] {list(self.columns)} "
            f"via fkindex({self.fk_column}) from {self.state}"
        )


@dataclass(frozen=True)
class GroupJoinAgg(PhysicalOp):
    """Groupjoin probe: look up the FK, add deltas into the build HT."""

    state: str
    fk_column: str
    aggregates: Tuple[AggSpec, ...]
    access: str = VECTOR

    def describe(self) -> str:
        return (
            f"GroupJoinAgg[{self.access}] key={self.fk_column} "
            f"into ht[{self.state}] aggs=[{_aggs_text(self.aggregates)}]"
        )


@dataclass(frozen=True)
class ScalarAgg(PhysicalOp):
    """Terminal scalar aggregation under one of the agg modes."""

    aggregates: Tuple[AggSpec, ...]
    mode: str  # conditional | gathered | value_mask

    def describe(self) -> str:
        return f"ScalarAgg[{self.mode}] [{_aggs_text(self.aggregates)}]"


@dataclass(frozen=True)
class GroupAgg(PhysicalOp):
    """Terminal grouped aggregation under one of the agg modes."""

    key: Expr
    key_name: str
    aggregates: Tuple[AggSpec, ...]
    mode: str  # conditional | gathered | value_mask | key_mask
    expected_groups: int = 1

    def describe(self) -> str:
        return (
            f"GroupAgg[{self.mode}] key[{self.key_name}]={self.key.to_c()} "
            f"(~{self.expected_groups} groups) "
            f"[{_aggs_text(self.aggregates)}]"
        )


@dataclass(frozen=True)
class EagerAggregate(PhysicalOp):
    """§III-E rewrite: unconditional FK-grouped aggregation of the probe
    table, then a build-side cleanup scan deleting non-qualifying keys.

    Carries exactly what the generated kernel and its pricing read:
    ``table`` is the probe table, aggregated by ``fk_column``; the
    cleanup scan deletes the ``pk_column`` keys of ``build_table`` rows
    failing ``build_conjuncts``.
    """

    table: str
    fk_column: str
    pk_column: str
    build_table: str
    aggregates: Tuple[AggSpec, ...]
    probe_conjuncts: Tuple[Expr, ...] = ()
    build_conjuncts: Tuple[Expr, ...] = ()

    def describe(self) -> str:
        return (
            f"EagerAggregate key={self.fk_column} "
            f"(cleanup scan over {self.build_table})"
        )


@dataclass(frozen=True)
class Pipeline:
    """One fused loop over one base table's columns."""

    label: str
    table: str
    ops: Tuple[PhysicalOp, ...]
    merged: Tuple[str, ...] = ()  # §III-C: columns read once, shared
    #: Access-encoding decision: ``(column, codec description)`` pairs
    #: naming the columns this pipeline streams as physical codes, with
    #: decode deferred to the materialization points.
    encodings: Tuple[Tuple[str, str], ...] = ()

    def describe(self) -> str:
        lines = [f"pipeline {self.label!r} over {self.table}:"]
        if self.encodings:
            codes = ", ".join(
                f"{column} {desc}" for column, desc in self.encodings
            )
            lines.append(f"  encoding= {codes} (decode late)")
        if self.merged:
            lines.append(f"  merged reads: {list(self.merged)}")
        for op in self.ops:
            lines.append(f"  {op.describe()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PhysicalPlan:
    """Executable plan: build pipelines first, the probe pipeline last."""

    strategy: str
    pipelines: Tuple[Pipeline, ...]
    interpreted: bool = False
    notes: Tuple[str, ...] = ()

    def describe(self) -> str:
        head = f"PhysicalPlan[{self.strategy}]"
        if self.interpreted:
            head += " (Volcano per-tuple dispatch on every scan)"
        lines = [head]
        for pipe in self.pipelines:
            for line in pipe.describe().splitlines():
                lines.append("  " + line)
        return "\n".join(lines)


__all__ = [
    "BRANCH",
    "VECTOR",
    "BitmapBuild",
    "BitmapSemiProbe",
    "CarriedGather",
    "ColumnMaterialize",
    "DisjunctBitmapProbe",
    "DisjunctIndexProbe",
    "EagerAggregate",
    "ExistsBitmapBuild",
    "ExistsBitmapProbe",
    "FilterStage",
    "GroupAgg",
    "GroupBuild",
    "GroupDistribution",
    "GroupJoinAgg",
    "HashJoinCarryProbe",
    "HashSemiProbe",
    "IndexGather",
    "JoinBuild",
    "MultiBitmapBuild",
    "OuterGroupJoinAgg",
    "PhysicalOp",
    "PhysicalPlan",
    "Pipeline",
    "ScalarAgg",
    "SemiHashBuild",
]
