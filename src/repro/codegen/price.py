"""Pricing: a physical plan's measured counts -> the paper's clock.

The instrumented backend runs the same generated NumPy kernels as the
serving path (:mod:`repro.codegen.vectorize`), compiled to also count
what they do: rows each op sees, survivors after each conjunct, probes
and hits per hash or bitmap probe, distinct build keys, groups
(``state[COUNTS]``). :func:`price` walks the physical plan and turns
those counts into the access events (SeqRead, CondRead, RandomAccess,
Branch, Compute) the equivalent compiled C would generate, under one
``kernel()`` / ``overlap()`` scope per pipeline, so the machine model
prices them. Counts are measured, latencies are modelled; nothing here
touches a column's values.

Hash accesses are priced from occupancy: the table a build would fill
has ``table_geometry(expected)`` slots, ``entries`` of them live at
build completion, and each access costs the expected linear-probe
length at that load factor (:func:`repro.engine.kernels.ht_op_cycles`).

Cross-pipeline state (table geometries, bitmap sizes, carried-column
encodings) is keyed by the producing pipeline's state name, as the
kernels' own state is.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..engine import kernels as K
from ..engine.events import (
    Branch,
    Compute,
    RandomAccess,
    SeqRead,
    SeqWrite,
    StatSample,
)
from ..engine.hashtable import table_geometry
from ..engine.session import Session
from ..errors import PlanError
from ..plan import passes as PS
from ..plan.expressions import Expr, StrMatch, compare_count
from ..plan.physical import (
    BRANCH,
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
    PhysicalPlan,
    Pipeline,
    ScalarAgg,
    SemiHashBuild,
)
from ..storage.database import Database
from .common import (
    agg_exprs_columns,
    column_width,
    emit_cond_reads,
    emit_expr_compute,
    emit_seq_reads,
    table_rows,
)

Counts = Dict[Tuple[int, int, str], int]
Record = Dict[str, int]


class _Stream:
    """What a pipeline's generated loop knows about its row stream."""

    def __init__(self, view, pipe: Pipeline) -> None:
        self.view = view
        self.table = pipe.table
        self.n = table_rows(view)
        # Columns served as physical codes (access-encoding pass): name
        # -> code byte width. Predicates run in code space; decode
        # events fire only where 64-bit values materialize.
        self.encoded: Dict[str, int] = {
            column: int(view[column].dtype.itemsize)
            for column, _ in pipe.encodings
            if column in view
        }
        # Columns already materialized: decode is priced once per
        # pipeline, then the wide array is reused.
        self.decoded: Set[str] = set()
        # The per-tuple loop overhead is charged once per pipeline, by
        # whichever op drives the scalar loop (branching filter or the
        # first full-stream hash probe).
        self.loop_charged = False
        # Whether an op has selected rows yet (the first full-stream
        # hash probe reads its column sequentially).
        self.selecting = False
        # The selection vector is built (and priced) once per pipeline;
        # later narrowing reuses it.
        self.selvec_charged = False
        # Access merging (§III-C): the prepass records what it read so
        # the masked aggregation never re-reads a shared column.
        self.already_read: Optional[Set[str]] = (
            set() if pipe.merged else None
        )
        # Columns attached from build sides (gathers, carry probes).
        self.carried: Set[str] = set()


# ---------------------------------------------------------------------------
# Access patterns
# ---------------------------------------------------------------------------


def _decode(session: Session, ctx: _Stream, column: str, n: int) -> None:
    """Price the late-materialization decode of an encoded column.

    A widening convert (vpmovsx-style) of ``n`` code elements into
    64-bit registers — the moment a code stream leaves code space.
    Columns the pipeline serves decoded emit nothing, and a column is
    priced at most once per pipeline: the first consumer pays for the
    materialization, later ones reuse the wide array.
    """
    width = ctx.encoded.get(column)
    if width and n and column not in ctx.decoded:
        ctx.decoded.add(column)
        session.tracer.emit(
            Compute(n=n, op="decode", simd=True, width=width)
        )


def _decode_cols(session: Session, ctx: _Stream, columns, n: int) -> None:
    for column in columns:
        _decode(session, ctx, column, n)


def _indices(session: Session, ctx: _Stream, k: int) -> None:
    """The selection vector of ``k`` selected rows: built (a predicated
    select per row plus the index writes) once per pipeline."""
    ctx.selecting = True
    if not ctx.selvec_charged:
        ctx.selvec_charged = True
        K.price_selection_vector(session, ctx.n, k)


def _gather(
    session: Session, ctx: _Stream, column: str, k: int
) -> None:
    """``k`` values of a view column read through the selection vector
    (the ``s_trav_cr`` pattern SWOLE eliminates)."""
    K.price_gather(
        session, ctx.n, k, column_width(ctx.view, column), column
    )


def _cond_read(session: Session, ctx: _Stream, column: str, k: int) -> None:
    """Conditional read guarded by a per-tuple ``if`` (data-centric)."""
    ctx.selecting = True
    K.price_cond_read(
        session, ctx.n, k, column_width(ctx.view, column), column
    )


def _read_keys(
    session: Session, ctx: _Stream, column: str, access: str, k: int
) -> None:
    """The ``k`` selected key values under the op's access style."""
    if access == BRANCH:
        _cond_read(session, ctx, column, k)
    else:
        _indices(session, ctx, k)
        _gather(session, ctx, column, k)
    _decode(session, ctx, column, k)


def _fk_gather(
    session: Session, db: Database, ctx: _Stream, fk_column: str, k: int
) -> None:
    """Gather ``k`` FK-index offsets of the scanned table's rows."""
    offsets = db.fk_index(ctx.table, fk_column).offsets
    K.price_gather(
        session,
        int(offsets.shape[0]),
        k,
        int(offsets.dtype.itemsize),
        f"fkindex({fk_column})",
    )


# ---------------------------------------------------------------------------
# Hash tables
# ---------------------------------------------------------------------------


class _Table:
    """A hash table's size at build completion: sized for the
    ``expected`` keys the plan declares, unless the measured ``entries``
    would fill that — a planner estimate from a prefix sample can be
    short — and then sized for the entries, as a table that grows
    would end up.

    The resize happens only where a full table would otherwise raise,
    so every table that fits prices as sized. That leaves a cliff: an
    estimate a few entries short of filling the table prices an access
    near a full table (``α → 1``, about ``capacity / 2`` probes), while
    one entry more resizes to ``α ≈ 0.5`` (about 1.5 probes)."""

    __slots__ = ("entries", "capacity", "nbytes")

    def __init__(self, expected: int, num_aggs: int, entries: int) -> None:
        self.capacity, self.nbytes = table_geometry(expected, num_aggs)
        if entries >= self.capacity:
            self.capacity, self.nbytes = table_geometry(entries, num_aggs)
        self.entries = entries


def _ht_access(
    session: Session,
    table: _Table,
    n: int,
    kind: str,
    hit: float = 1.0,
    hot: float = 0.0,
) -> None:
    """``n`` hash accesses; ``hot`` of them hit the key-masking
    throwaway entry."""
    K.price_ht_access(
        session, kind, n, table.nbytes, table.entries, table.capacity,
        hit=hit, hot=hot,
    )


def _ht_lookup(session: Session, table: _Table, k: int, hits: int) -> None:
    _ht_access(session, table, k, "ht_lookup", hit=hits / k if k else 1.0)


def _masked_fraction(n: int, k: int) -> float:
    """Share of ``n`` key-masked rows sent to the throwaway entry."""
    return (n - k) / n if n else 0.0


def _add_at(session: Session, n: int) -> None:
    """Scatter-adds into already-resolved slots."""
    session.tracer.emit(Compute(n=n, op="add", simd=False, width=8))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def _branching_predicate(
    session: Session,
    data,
    conjs: Sequence[Expr],
    survivors_after: List[int],
) -> None:
    """Short-circuit conjunctive predicate, tuple at a time.

    The first conjunct reads its columns sequentially; later conjuncts
    are evaluated only for tuples that survived the prefix, so their
    column accesses are conditional and each conjunct is a branch site
    with its measured conditional selectivity — the Ross-style branching
    code whose mispredictions create the paper's selectivity hump.
    """
    n = table_rows(data)
    survivors = n
    for i, conj in enumerate(conjs):
        if isinstance(conj, StrMatch):
            # LIKE predicates price as a per-row strcmp over the string
            # column itself (the flag column is the oracle's shortcut,
            # not an access the generated program performs).
            K.price_string_match(session, n, conj.column)
        else:
            cols = sorted(conj.columns())
            if i == 0:
                emit_seq_reads(session, data, cols)
            else:
                emit_cond_reads(session, data, cols, survivors)
            session.tracer.emit(
                Compute(n=survivors, op="cmp", simd=False)
            )
            emit_expr_compute(session, conj, survivors, simd=False)
        new_survivors = survivors_after[i]
        taken = new_survivors / survivors if survivors else 0.0
        session.tracer.emit(
            Branch(n=survivors, taken_fraction=taken, site=f"pred{i}")
        )
        survivors = new_survivors
        if survivors == 0:
            break
    K.scalar_loop(session, n)


def _prepass_predicate(
    session: Session,
    data,
    conjs: Sequence[Expr],
    already_read: Optional[Set[str]] = None,
) -> None:
    """Prepass predicate evaluation (hybrid/ROF/SWOLE form).

    Every conjunct is evaluated over the *whole* column with SIMD and
    the 0/1 results are ANDed — no control dependency, no branches,
    purely sequential accesses, so nothing here depends on the data.
    """
    n = table_rows(data)
    # A LIKE already writes its resident result; a predicate that is
    # nothing but LIKEs skips the extra combined-mask pass.
    wrote_mask = not all(isinstance(c, StrMatch) for c in conjs)
    for i, conj in enumerate(conjs):
        if isinstance(conj, StrMatch):
            K.price_string_match(session, n, conj.column)
        else:
            cols = sorted(conj.columns())
            emit_seq_reads(session, data, cols, already_read=already_read)
            width = max(column_width(data, c) for c in cols) if cols else 8
            session.tracer.emit(
                Compute(n=n, op="cmp", simd=True, width=width)
            )
            emit_expr_compute(session, conj, n, simd=True, width=width)
        if i > 0:
            session.tracer.emit(Compute(n=n, op="and", simd=True, width=1))
    if wrote_mask:
        K.price_seq_write(session, n, 1, "cmp", resident=True)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _base_cols(aggregates, view) -> List[str]:
    """Aggregate input columns that live in the scanned table (carried
    columns arrive via the FK index instead)."""
    return [c for c in agg_exprs_columns(aggregates) if c in view]


def _carried_encodings(ctx: _Stream, carry) -> Dict[str, int]:
    """Code widths of carried columns still in code space.

    Columns carried straight from an encoded scan stay codes until a
    downstream pipeline materializes them (the decode is priced at that
    late-materialization point); columns that arrived via an earlier
    gather were already materialized.
    """
    return {
        name: ctx.encoded[name]
        for name in carry
        if name in ctx.encoded and name not in ctx.carried
    }


def _filter(session: Session, ctx: _Stream, op: FilterStage, rec: Record) -> None:
    view_conjs = [
        conj for conj in op.conjuncts if conj.columns() <= set(ctx.view)
    ]
    carried_conjs = [
        conj for conj in op.conjuncts if conj not in view_conjs
    ]
    if view_conjs:
        if op.mode == "branch":
            _branching_predicate(
                session,
                ctx.view,
                view_conjs,
                [rec[f"s{i}"] for i in range(len(view_conjs))],
            )
            ctx.loop_charged = True
        else:
            _prepass_predicate(
                session, ctx.view, view_conjs, already_read=ctx.already_read
            )
        ctx.selecting = True
    for j in range(len(carried_conjs)):
        # Cross-table conjunct over index-carried columns (Q5's
        # c_nationkey = s_nationkey): evaluated branch-free over the
        # surviving rows — the carried values are already in registers
        # from the gathers that produced them.
        ctx.selecting = True
        session.tracer.emit(Compute(n=rec[f"c{j}"], op="cmp", simd=False))


def _hash_build(
    session: Session,
    ctx: _Stream,
    key_column: str,
    access: str,
    rec: Record,
    expected: Optional[int],
    num_aggs: int,
) -> _Table:
    """Set-semantics build of the ``k`` selected keys."""
    k = rec["k"]
    _read_keys(session, ctx, key_column, access, k)
    table = _Table(
        max(expected if expected is not None else k, 1),
        num_aggs,
        rec["distinct"],
    )
    _ht_access(session, table, k, "ht_insert")
    return table


def _hash_probe(
    session: Session,
    ctx: _Stream,
    fk_column: str,
    access: str,
    table: _Table,
    rec: Record,
    site: str,
) -> None:
    """Probe the ``k`` selected FK values; ``hits`` find their key."""
    k, hits = rec["k"], rec["hits"]
    _read_keys(session, ctx, fk_column, access, k)
    _ht_lookup(session, table, k, hits)
    if access == BRANCH:
        session.tracer.emit(
            Branch(n=k, taken_fraction=hits / k if k else 0.0, site=site)
        )
    else:
        session.tracer.emit(Compute(n=k, op="select", simd=False))


def _join_match(session: Session, n: int, hits: int, site: str) -> None:
    session.tracer.emit(
        StatSample(kind="join_match", n=n, value=float(hits), site=site)
    )


def _groups(session: Session, n: int, groups: int) -> None:
    session.tracer.emit(
        StatSample(kind="group_cardinality", n=n, value=float(groups))
    )


def _bitmap_set(
    session: Session, ctx: _Stream, mode: str, nbytes: int, k: int
) -> None:
    """Fill a positional bitmap: one sequential write of the whole map
    (``mask``) or one bit set per selected row (``offsets``)."""
    if mode == "mask":
        session.tracer.emit(SeqWrite(n=nbytes, width=1, array="bitmap"))
    else:
        _indices(session, ctx, k)
        session.tracer.emit(
            RandomAccess(n=k, struct_bytes=nbytes, kind="bitmap_set")
        )


def _aggregate_into(
    session: Session,
    table: _Table,
    aggregates,
    n: int,
    simd: bool,
    hot: float = 0.0,
) -> None:
    """Accumulate every aggregate over ``n`` rows: one priced hash
    access per tuple for the first column, resolved-slot adds for the
    rest."""
    for i, agg in enumerate(aggregates):
        session.tracer.emit(Compute(n=n, op="add", simd=simd))
        if agg.func != "count":
            emit_expr_compute(session, agg.expr, n, simd=simd)
        if i == 0:
            _ht_access(session, table, n, "ht_insert", hot=hot)
        else:
            _add_at(session, n)


def _scalar_agg(session: Session, ctx: _Stream, op: ScalarAgg, rec: Record) -> None:
    view, n = ctx.view, ctx.n
    base_cols = _base_cols(op.aggregates, view)
    if op.mode == PS.VALUE_MASK:
        # §III-A: unconditional sequential reads, masked accumulation.
        emit_seq_reads(session, view, base_cols, already_read=ctx.already_read)
        for agg in op.aggregates:
            if agg.func == "count":
                session.tracer.emit(Compute(n=n, op="add", simd=True))
                continue
            # Masked evaluation is unconditional, so encoded inputs
            # decode over the full stream before the arithmetic.
            _decode_cols(session, ctx, sorted(agg.expr.columns()), n)
            emit_expr_compute(session, agg.expr, n, simd=True)
            session.tracer.emit(Compute(n=n, op="mul", simd=True))  # masking
            session.tracer.emit(Compute(n=n, op="add", simd=True))  # accumulate
        return
    k = rec["k"]
    if op.mode == PS.CONDITIONAL:
        ctx.selecting = True
        emit_cond_reads(session, view, base_cols, k)
    elif op.mode == PS.GATHERED:
        _indices(session, ctx, k)
        for col in base_cols:
            _gather(session, ctx, col, k)
    else:
        raise PlanError(f"unknown scalar aggregation mode {op.mode!r}")
    _decode_cols(session, ctx, base_cols, k)
    for agg in op.aggregates:
        session.tracer.emit(Compute(n=k, op="add", simd=False))
        if agg.func != "count":
            emit_expr_compute(session, agg.expr, k, simd=False)


def _group_agg(session: Session, ctx: _Stream, op: GroupAgg, rec: Record) -> None:
    view, n = ctx.view, ctx.n
    base_cols = _base_cols(op.aggregates, view)
    naggs = len(op.aggregates)
    groups = rec["groups"]
    if op.mode in (PS.KEY_MASK, PS.VALUE_MASK):
        key_cols = sorted(op.key.columns())
        emit_seq_reads(session, view, key_cols, already_read=ctx.already_read)
        _decode_cols(session, ctx, key_cols, n)
        emit_expr_compute(session, op.key, n, simd=True)
    if op.mode == PS.KEY_MASK:
        # §III-B: blend non-qualifying keys into the throwaway entry.
        k = rec["k"]
        K.price_mask_keys(session, n, op.key_name)
        emit_seq_reads(session, view, base_cols, already_read=ctx.already_read)
        _decode_cols(session, ctx, base_cols, n)
        # +1 expected key: the NULL_KEY throwaway slot.
        table = _Table(op.expected_groups + 1, naggs, groups + (k < n))
        _aggregate_into(
            session, table, op.aggregates, n, simd=True,
            hot=_masked_fraction(n, k),
        )
    elif op.mode == PS.VALUE_MASK:
        # §III-A grouped: real-key lookups, masked deltas, count column.
        emit_seq_reads(session, view, base_cols, already_read=ctx.already_read)
        _decode_cols(session, ctx, base_cols, n)
        table = _Table(max(op.expected_groups, 1), naggs + 1, rec["distinct"])
        for i, agg in enumerate(op.aggregates):
            if agg.func == "count":
                session.tracer.emit(Compute(n=n, op="add", simd=True))
            else:
                emit_expr_compute(session, agg.expr, n, simd=True)
                session.tracer.emit(Compute(n=n, op="mul", simd=True))
            if i == 0:
                _ht_access(session, table, n, "ht_insert")
            else:
                _add_at(session, n)
        _add_at(session, n)
    else:
        k = rec["k"]
        cols = sorted((set(op.key.columns()) & set(view)) | set(base_cols))
        if op.mode == PS.CONDITIONAL:
            ctx.selecting = True
            emit_cond_reads(session, view, cols, k)
        elif op.mode == PS.GATHERED:
            _indices(session, ctx, k)
            for col in cols:
                _gather(session, ctx, col, k)
        else:
            raise PlanError(f"unknown grouped aggregation mode {op.mode!r}")
        _decode_cols(session, ctx, cols, k)
        table = _Table(max(op.expected_groups, 1), naggs, groups)
        _aggregate_into(session, table, op.aggregates, k, simd=False)
    _groups(session, n, groups)


def _groupjoin_agg(
    session: Session, ctx: _Stream, op: GroupJoinAgg, table: _Table, rec: Record
) -> None:
    view, n = ctx.view, ctx.n
    base_cols = _base_cols(op.aggregates, view)
    hits = rec["hits"]
    _hash_probe(session, ctx, op.fk_column, op.access, table, rec, "join")
    if op.access == BRANCH:
        emit_cond_reads(session, view, base_cols, hits)
    else:
        for col in base_cols:
            _gather(session, ctx, col, hits)
    _join_match(session, rec["k"], hits, "join")
    _decode_cols(session, ctx, base_cols, hits)
    for agg in op.aggregates:
        if agg.func != "count":
            emit_expr_compute(session, agg.expr, hits, simd=False)
        _add_at(session, hits)
    _add_at(session, hits)
    _groups(session, n, rec["groups"])


def _outer_groupjoin_agg(
    session: Session,
    ctx: _Stream,
    op: OuterGroupJoinAgg,
    rec: Record,
    db: Database,
) -> Tuple[int, int]:
    """Outer groupjoin (Q13): count qualifying probe rows per build key.
    Returns the build rows and the keys the count table holds."""
    nc = db.table(op.build_table).num_rows
    n, k, distinct = ctx.n, rec["k"], rec["distinct"]
    ctx.selecting = True
    if op.mode == PS.KEY_MASK:
        table = _Table(nc + 1, 1, distinct + (k < n))
        _decode(session, ctx, op.fk_column, n)
        K.price_mask_keys(session, n, op.fk_column)
        _ht_access(
            session, table, n, "ht_insert", hot=_masked_fraction(n, k)
        )
    elif op.mode == PS.VALUE_MASK:
        # Every row's key goes in, selected or not.
        distinct = rec["distinct_all"]
        table = _Table(max(nc, 1), 1, distinct)
        emit_seq_reads(
            session, ctx.view, [op.fk_column], already_read=ctx.already_read
        )
        _decode(session, ctx, op.fk_column, n)
        session.tracer.emit(Compute(n=n, op="mul", simd=True, width=8))
        _ht_access(session, table, n, "ht_insert")
    elif op.mode in (PS.CONDITIONAL, PS.GATHERED):
        table = _Table(max(nc, 1), 1, distinct)
        _read_keys(
            session,
            ctx,
            op.fk_column,
            BRANCH if op.mode == PS.CONDITIONAL else "vector",
            k,
        )
        _ht_access(session, table, k, "ht_insert")
    else:
        raise PlanError(f"unknown outer groupjoin mode {op.mode!r}")
    return nc, distinct


def _group_distribution(
    session: Session, op: GroupDistribution, built: Tuple[int, int], rec: Record
) -> None:
    """Second grouping over the groupjoin's per-key counts; unmatched
    build rows land in the zero bucket (outer-join semantics)."""
    rows, keys = built
    groups = rec["groups"]
    session.tracer.emit(
        SeqRead(n=keys, width=8, array=f"ht({op.key_name})")
    )
    _ht_access(session, _Table(max(groups, 1), 1, groups), groups, "ht_insert")
    _groups(session, rows, groups)


def _disjunct_index_probe(
    session: Session,
    ctx: _Stream,
    op: DisjunctIndexProbe,
    rec: Record,
    db: Database,
) -> None:
    """Tuple-at-a-time disjunction: index-join into the build table and
    evaluate every (build-pred AND probe-pred) arm per surviving row."""
    build = db.data(op.state)
    nparts = db.table(op.state).num_rows
    k = rec["k"]
    probe_cols = sorted(set().union(*(pp.columns() for _, pp in op.disjuncts)))
    build_cols = sorted(set().union(*(bp.columns() for bp, _ in op.disjuncts)))
    width_sum = sum(build[c].dtype.itemsize for c in build_cols)
    if op.access == BRANCH:
        ctx.selecting = True
        emit_cond_reads(session, ctx.view, probe_cols, k)
    else:
        _indices(session, ctx, k)
        for col in probe_cols:
            _gather(session, ctx, col, k)
    session.tracer.emit(
        RandomAccess(n=k, struct_bytes=nparts * width_sum, kind="index_join")
    )
    session.tracer.emit(
        Compute(n=3 * len(op.disjuncts) * k, op="cmp", simd=False)
    )
    if op.access == BRANCH:
        taken = (float(rec["final"]) / k) if k else 0.0
        session.tracer.emit(
            Branch(n=k, taken_fraction=taken, site="disjunction")
        )
    else:
        session.tracer.emit(Compute(n=k, op="select", simd=False))
    _join_match(session, ctx.n, rec["hits"], "disjunction")


def _disjunct_bitmap_probe(
    session: Session,
    ctx: _Stream,
    op: DisjunctBitmapProbe,
    rows: int,
    rec: Record,
    db: Database,
) -> None:
    """SWOLE disjunction: test each arm's positional bitmap through the
    FK index and AND it with that arm's probe-side predicate."""
    n, k = ctx.n, rec["k"]
    probe_cols = sorted(set().union(*(pp.columns() for _, pp in op.disjuncts)))
    emit_seq_reads(session, ctx.view, probe_cols, already_read=ctx.already_read)
    total_cmps = sum(compare_count(pp) for _, pp in op.disjuncts)
    session.tracer.emit(
        Compute(n=total_cmps * n, op="cmp", simd=True, width=4)
    )
    _indices(session, ctx, k)
    _fk_gather(session, db, ctx, op.fk_column, k)
    session.tracer.emit(
        RandomAccess(
            n=len(op.disjuncts) * k,
            struct_bytes=max(rows // 8, 1),
            kind="bitmap_test",
        )
    )
    session.tracer.emit(
        Compute(n=2 * len(op.disjuncts) * k, op="and", simd=True, width=1)
    )
    _join_match(session, n, rec["hits"], "disjunction")


def _price_ops(
    session: Session,
    db: Database,
    pipe: Pipeline,
    records: Dict[int, Record],
    state: Dict[str, dict],
) -> None:
    ctx = _Stream(db.scan_view(pipe.table, pipe.encodings), pipe)
    n = ctx.n
    for i, op in enumerate(pipe.ops):
        rec = records.get(i, {})
        if isinstance(op, FilterStage):
            _filter(session, ctx, op, rec)
        elif isinstance(op, SemiHashBuild):
            expected = (
                db.table(op.expected_from).num_rows
                if op.expected_from
                else None
            )
            state[op.state] = {
                "ht": _hash_build(
                    session, ctx, op.key_column, op.access, rec, expected, 0
                )
            }
        elif isinstance(op, JoinBuild):
            table = _hash_build(
                session, ctx, op.key_column, op.access, rec, None, 1
            )
            state[op.state] = {
                "ht": table,
                "encoded": _carried_encodings(ctx, op.carry),
            }
        elif isinstance(op, GroupBuild):
            state[op.state] = {
                "ht": _hash_build(
                    session, ctx, op.key_column, op.access, rec, None,
                    op.num_aggs + 1,
                )
            }
        elif isinstance(op, BitmapBuild):
            ctx.selecting = True
            _bitmap_set(session, ctx, op.mode, max(n // 8, 1), rec["k"])
            state[op.state] = {
                "rows": n,
                "encoded": _carried_encodings(ctx, op.carry),
            }
        elif isinstance(op, MultiBitmapBuild):
            # Q19-style SWOLE build: one scan of the build table
            # produces one positional bitmap per disjunct arm.
            cols: Set[str] = set()
            for bp in op.disjuncts:
                cols |= bp.columns()
            emit_seq_reads(session, ctx.view, sorted(cols))
            total_cmps = sum(compare_count(bp) for bp in op.disjuncts)
            session.tracer.emit(
                Compute(n=total_cmps * n, op="cmp", simd=True, width=4)
            )
            session.tracer.emit(
                SeqWrite(
                    n=len(op.disjuncts) * max(n // 8, 1),
                    width=1,
                    array="bitmaps",
                )
            )
            state[op.state] = {"rows": n}
        elif isinstance(op, ExistsBitmapBuild):
            # SWOLE existential build: fold the FK side's qualifying
            # rows into a positional bitmap over the probe table's
            # primary-key domain.
            session.tracer.emit(
                SeqRead(n=n, width=8, array=f"fkindex({op.fk_column})")
            )
            session.tracer.emit(Compute(n=n, op="or", simd=True, width=1))
            probe_rows = db.table(op.probe_table).num_rows
            _bitmap_set(
                session, ctx, op.mode, max(probe_rows // 8, 1), rec["k"]
            )
            ctx.selecting = True
        elif isinstance(op, HashSemiProbe):
            ctx.selecting = True
            site = f"{op.state}-join"
            _hash_probe(
                session, ctx, op.fk_column, op.access,
                state[op.state]["ht"], rec, site,
            )
            _join_match(session, rec["k"], rec["hits"], site)
        elif isinstance(op, HashJoinCarryProbe):
            site = f"{op.state}-join"
            table = state[op.state]["ht"]
            if not ctx.selecting:
                # First full-stream probe: the whole column is read
                # sequentially and this op drives the per-tuple loop.
                hits = rec["hits"]
                emit_seq_reads(session, ctx.view, [op.fk_column])
                _decode(session, ctx, op.fk_column, n)
                _ht_lookup(session, table, n, hits)
                if op.access == BRANCH:
                    taken = hits / n if n else 0.0
                    session.tracer.emit(
                        Branch(n=n, taken_fraction=taken, site=site)
                    )
                else:
                    session.tracer.emit(
                        Compute(n=n, op="select", simd=False)
                    )
                if not ctx.loop_charged:
                    K.scalar_loop(session, n)
                    ctx.loop_charged = True
                _join_match(session, n, hits, site)
                ctx.selecting = True
            else:
                _hash_probe(
                    session, ctx, op.fk_column, op.access, table, rec, site
                )
                _join_match(session, rec["k"], rec["hits"], site)
            ctx.carried.update(op.carry)
        elif isinstance(op, BitmapSemiProbe):
            session.tracer.emit(
                SeqRead(n=n, width=8, array=f"fkindex({op.fk_column})")
            )
            session.tracer.emit(
                RandomAccess(
                    n=n,
                    struct_bytes=max(state[op.state]["rows"] // 8, 1),
                    kind="bitmap_test",
                )
            )
            session.tracer.emit(Compute(n=n, op="and", simd=True, width=1))
            _join_match(session, n, rec["hits"], f"{op.state}-bitmap")
            ctx.selecting = True
        elif isinstance(op, ExistsBitmapProbe):
            session.tracer.emit(
                SeqRead(n=max(n // 8, 1), width=1, array="bitmap")
            )
            session.tracer.emit(Compute(n=n, op="and", simd=True, width=1))
            _join_match(session, n, rec["hits"], f"{op.state}-exists")
            ctx.selecting = True
        elif isinstance(op, CarriedGather):
            # Late materialization: pull build-side columns through the
            # FK index for the surviving rows (priced), or compose them
            # for a downstream build (unpriced — the consumer prices its
            # own access).
            if op.priced:
                k = rec["k"]
                encoded = state[op.state].get("encoded", {})
                _indices(session, ctx, k)
                for name in op.columns:
                    session.tracer.emit(
                        RandomAccess(
                            n=k,
                            struct_bytes=rec[f"bytes:{name}"],
                            kind=f"gather({name})",
                        )
                    )
                    if name in encoded and k:
                        session.tracer.emit(
                            Compute(
                                n=k, op="decode", simd=True,
                                width=encoded[name],
                            )
                        )
            ctx.carried.update(op.columns)
        elif isinstance(op, DisjunctIndexProbe):
            _disjunct_index_probe(session, ctx, op, rec, db)
        elif isinstance(op, DisjunctBitmapProbe):
            _disjunct_bitmap_probe(
                session, ctx, op, state[op.state]["rows"], rec, db
            )
        elif isinstance(op, ColumnMaterialize):
            columns = sorted(op.expr.columns())
            emit_seq_reads(session, ctx.view, columns)
            if op.lut_entries:
                # Dictionary-driven LUT probes index by code — no
                # decode: the narrow code stream is the whole point of
                # the access path.
                session.tracer.emit(
                    RandomAccess(n=n, struct_bytes=op.lut_entries, kind="lut")
                )
            else:
                _decode_cols(session, ctx, columns, n)
            session.tracer.emit(
                SeqWrite(n=n, width=rec["width"], array=op.column)
            )
            state.setdefault(op.state, {"rows": n})
        elif isinstance(op, IndexGather):
            k = rec["k"]
            if op.access == BRANCH:
                _cond_read(session, ctx, op.fk_column, k)
            else:
                _indices(session, ctx, k)
                _fk_gather(session, db, ctx, op.fk_column, k)
            session.tracer.emit(
                RandomAccess(
                    n=k,
                    struct_bytes=state[op.state]["rows"],
                    kind="index_join",
                )
            )
            ctx.carried.update(op.columns)
        elif isinstance(op, GroupJoinAgg):
            ctx.selecting = True
            _groupjoin_agg(session, ctx, op, state[op.state]["ht"], rec)
        elif isinstance(op, OuterGroupJoinAgg):
            state[op.state] = {
                "built": _outer_groupjoin_agg(session, ctx, op, rec, db)
            }
        elif isinstance(op, GroupDistribution):
            _group_distribution(session, op, state[op.state]["built"], rec)
        elif isinstance(op, ScalarAgg):
            _scalar_agg(session, ctx, op, rec)
        elif isinstance(op, GroupAgg):
            _group_agg(session, ctx, op, rec)
        else:
            raise PlanError(f"cannot price physical op {op!r}")


def _price_eager(
    session: Session, db: Database, op: EagerAggregate, rec: Record
) -> None:
    """Eager aggregation (paper §III-E), as one serial pass.

    For a groupjoin (join key == group-by key), SWOLE reverses build and
    probe: it *unconditionally* aggregates the probe table grouped by
    its foreign key — purely sequential reads, SIMD arithmetic, and hash
    updates into a table whose size is bounded by the build table's key
    count — and then deletes non-qualifying keys with one sequential
    scan of the build table (predicate inverted). Wasted work
    (aggregates later deleted) buys the access pattern. If the probe
    side has its own predicate, its keys are *key-masked* into the
    throwaway entry, composing §III-B with §III-E.
    """
    view = db.data(op.table)
    n = table_rows(view)
    build_rows = db.table(op.build_table).num_rows
    k = rec["selected"]
    with session.tracer.kernel(f"eager aggregate {op.table}"), \
            session.tracer.overlap():
        emit_seq_reads(session, view, [op.fk_column])
        hot = 0.0
        if op.probe_conjuncts:
            _prepass_predicate(session, view, op.probe_conjuncts)
            K.price_mask_keys(session, n, op.fk_column)
            hot = _masked_fraction(n, k)
        # +1 slot per group: the count column marking touched groups.
        table = _Table(
            build_rows + 1, len(op.aggregates) + 1, rec["groups"] + (k < n)
        )
        emit_seq_reads(session, view, agg_exprs_columns(op.aggregates))
        for i, agg in enumerate(op.aggregates):
            if agg.func == "count":
                session.tracer.emit(Compute(n=n, op="add", simd=True))
            else:
                emit_expr_compute(session, agg.expr, n, simd=True)
            if i == 0:
                _ht_access(session, table, n, "ht_insert", hot=hot)
            else:
                _add_at(session, n)
        _add_at(session, n)

    build_data = db.data(op.build_table)
    bn = table_rows(build_data)
    with session.tracer.kernel(f"cleanup scan {op.build_table}"), \
            session.tracer.overlap():
        if op.build_conjuncts:
            # note the inversion: delete rows that do NOT qualify
            _prepass_predicate(session, build_data, op.build_conjuncts)
            session.tracer.emit(Compute(n=bn, op="cmp", simd=True, width=1))
        deleted = rec["deleted"]
        if deleted:
            emit_cond_reads(session, build_data, [op.pk_column], deleted)
            # random deletions against the eager table (same footprint
            # the hash-table path would pay)
            _, nbytes = table_geometry(build_rows + 1, 0)
            session.tracer.emit(
                RandomAccess(
                    n=deleted,
                    struct_bytes=nbytes,
                    kind="ht_delete",
                    op_cycles=session.machine.op_cost("hash"),
                )
            )


def price(
    physical: PhysicalPlan, counts: Counts, db: Database, session: Session
) -> None:
    """Emit the events of one run of ``physical`` whose kernels counted
    ``counts``, pipeline by pipeline, to ``session``'s tracer."""
    records: Dict[int, Dict[int, Record]] = defaultdict(
        lambda: defaultdict(dict)
    )
    for (site, op_index, slot), value in counts.items():
        records[site][op_index][slot] = value
    if physical.interpreted:
        for pipe in physical.pipelines:
            K.interpreter_overhead(session, db.table(pipe.table).num_rows, 2)
    state: Dict[str, dict] = {}
    for site, pipe in enumerate(physical.pipelines):
        ops = records[site]
        if len(pipe.ops) == 1 and isinstance(pipe.ops[0], EagerAggregate):
            # The eager pass prices its two scans under their own
            # kernel/overlap scopes.
            _price_eager(session, db, pipe.ops[0], ops[0])
        elif len(pipe.ops) == 1 and isinstance(pipe.ops[0], GroupDistribution):
            # The distribution pass re-reads the groupjoin hash table,
            # not the base columns: a standalone kernel with no
            # access/compute overlap window.
            with session.tracer.kernel(pipe.label):
                _price_ops(session, db, pipe, ops, state)
        else:
            with session.tracer.kernel(pipe.label), session.tracer.overlap():
                _price_ops(session, db, pipe, ops, state)


__all__ = ["price"]
