"""Physical-plan executor: interpret pipelines into kernel programs.

The final stage of the staged pipeline (logical plan -> strategy passes
-> physical plan -> **kernel program**). :func:`execute_plan` walks a
:class:`~repro.plan.physical.PhysicalPlan` and, for every pipeline,
runs its operators against the base table's columns — doing the real
NumPy work *and* emitting the priced access events (SeqRead, CondRead,
RandomAccess, Branch, Compute), like the hand-coded TPC-H reference
programs it is pinned against. The accounting goes through the shared
helpers in :mod:`repro.codegen.common` (``prepass_predicate``,
``datacentric_predicate``, ``emit_*``) and the kernel library those
references use, so both price identical access patterns identically.

Cross-pipeline state (hash tables, bitmaps, materialized columns) is
keyed by the producing pipeline's base table; lowering guarantees every
consumer runs after its producer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

import numpy as np

from ..core import eager_aggregation
from ..engine import kernels as K
from ..engine.events import (
    Branch,
    Compute,
    RandomAccess,
    SeqRead,
    SeqWrite,
    StatSample,
)
from ..engine.hashtable import NULL_KEY, HashTable
from ..engine.session import Session
from ..errors import PlanError
from ..plan import passes as PS
from ..plan.expressions import compare_count
from ..plan.ops import AggSpec
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
    datacentric_predicate,
    emit_cond_reads,
    emit_expr_compute,
    emit_seq_reads,
    grouped_result,
    prepass_predicate,
    table_rows,
)


class _Ctx:
    """Mutable per-pipeline stream state."""

    __slots__ = (
        "view",
        "table",
        "n",
        "mask",
        "selvec_charged",
        "already_read",
        "carried",
        "lo",
        "loop_charged",
        "encoded",
        "decoded",
    )

    def __init__(
        self,
        view: Dict[str, np.ndarray],
        table: str,
        merged: bool,
        lo: int = 0,
        encodings: tuple = (),
    ) -> None:
        self.view = view
        self.table = table
        self.n = table_rows(view)
        # Columns served as physical codes (access-encoding pass): name
        # -> code byte width. Predicates run in code space; decode
        # events fire only where 64-bit values materialize.
        self.encoded: Dict[str, int] = {
            column: int(view[column].dtype.itemsize)
            for column, _ in encodings
            if column in view
        }
        # Columns already materialized: decode is priced once per
        # pipeline, then the wide array is reused.
        self.decoded: set = set()
        # Row offset of this view within the full table (nonzero for a
        # morsel's row-range slice) — FK-index offsets are sliced to it.
        self.lo = lo
        # The per-tuple loop overhead is charged once per pipeline, by
        # whichever op drives the scalar loop (branching filter or the
        # first full-stream hash probe).
        self.loop_charged = False
        self.mask: Optional[np.ndarray] = None
        # The selection vector is built (and priced) once per pipeline;
        # later narrowing reuses it via plain flatnonzero, mirroring the
        # hand-coded programs.
        self.selvec_charged = False
        # Access merging (§III-C): the prepass records what it read so
        # the masked aggregation never re-reads a shared column.
        self.already_read: Optional[Set[str]] = set() if merged else None
        self.carried: Dict[str, np.ndarray] = {}

    def get_mask(self) -> np.ndarray:
        if self.mask is None:
            self.mask = np.ones(self.n, dtype=bool)
        return self.mask

    def narrow(self, new_mask: np.ndarray) -> None:
        self.mask = (
            new_mask if self.mask is None else (self.mask & new_mask)
        )


def _decode(session: Session, ctx: _Ctx, column: str, n: int) -> None:
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


def _decode_cols(
    session: Session, ctx: _Ctx, columns, n: int
) -> None:
    for column in columns:
        _decode(session, ctx, column, n)


def _indices(session: Session, ctx: _Ctx) -> np.ndarray:
    """Selected row indexes; the selection-vector event fires once."""
    if not ctx.selvec_charged:
        ctx.selvec_charged = True
        return K.selection_vector(session, ctx.get_mask())
    return np.flatnonzero(ctx.get_mask())


def _fk_offsets(db: Database, ctx: _Ctx, fk_column: str) -> np.ndarray:
    """FK-index offsets for this view's row range (morsel-sliced)."""
    offsets = db.fk_index(ctx.table, fk_column).offsets
    return offsets[ctx.lo : ctx.lo + ctx.n]


def _base_cols(
    aggregates, view: Dict[str, np.ndarray]
) -> List[str]:
    """Aggregate input columns that live in the scanned table (carried
    columns arrive via the FK index instead)."""
    return [c for c in agg_exprs_columns(aggregates) if c in view]


def _agg_deltas(
    session: Session,
    agg: AggSpec,
    data: Dict[str, np.ndarray],
    n: int,
    simd: bool,
) -> np.ndarray:
    """Delta vector for one aggregate, with its arithmetic priced."""
    if agg.func == "count":
        return np.ones(n, dtype=np.int64)
    emit_expr_compute(session, agg.expr, n, simd=simd)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    return np.asarray(agg.expr.evaluate(data), dtype=np.int64)


def _aggregate_into(
    session: Session,
    table: HashTable,
    keys: np.ndarray,
    aggregates,
    data: Dict[str, np.ndarray],
    n: int,
    simd: bool,
) -> None:
    """Accumulate every aggregate: one priced hash access per tuple for
    the first column, resolved-slot adds for the rest."""
    slots = None
    for i, agg in enumerate(aggregates):
        session.tracer.emit(Compute(n=n, op="add", simd=simd))
        deltas = _agg_deltas(session, agg, data, n, simd)
        if slots is None:
            K.ht_aggregate(session, table, keys, deltas, agg=i)
            slots, _ = table.lookup(keys)
        else:
            K.ht_add_at(session, table, slots, i, deltas)


# ---------------------------------------------------------------------------
# Operator implementations
# ---------------------------------------------------------------------------


def _op_filter(session: Session, ctx: _Ctx, op: FilterStage) -> None:
    view_conjs = [
        conj for conj in op.conjuncts if conj.columns() <= set(ctx.view)
    ]
    carried_conjs = [
        conj for conj in op.conjuncts if conj not in view_conjs
    ]
    if view_conjs:
        if op.mode == "branch":
            mask = datacentric_predicate(session, ctx.view, view_conjs)
            ctx.loop_charged = True
        else:
            mask = prepass_predicate(
                session, ctx.view, view_conjs, already_read=ctx.already_read
            )
        ctx.narrow(mask)
    for conj in carried_conjs:
        # Cross-table conjunct over index-carried columns (Q5's
        # c_nationkey = s_nationkey): evaluated branch-free over the
        # surviving rows — the carried values are already in registers
        # from the gathers that produced them.
        k = int(ctx.get_mask().sum())
        session.tracer.emit(Compute(n=k, op="cmp", simd=False))
        full = dict(ctx.view)
        full.update(ctx.carried)
        ctx.narrow(np.asarray(conj.evaluate(full), dtype=bool))


def _read_keys(
    session: Session, ctx: _Ctx, column: str, access: str
) -> np.ndarray:
    """Selected key values under the op's access style."""
    if access == BRANCH:
        values = K.conditional_read(
            session, ctx.view[column], ctx.get_mask(), column
        )
    else:
        idx = _indices(session, ctx)
        values = K.gather(session, ctx.view[column], idx, column)
    _decode(session, ctx, column, int(values.shape[0]))
    return values.astype(np.int64)


def _carried_encodings(ctx: _Ctx, carry) -> Dict[str, int]:
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


def _op_semihash_build(
    session: Session, ctx: _Ctx, op: SemiHashBuild, state: Dict, db: Database
) -> None:
    keys = _read_keys(session, ctx, op.key_column, op.access)
    expected = (
        db.table(op.expected_from).num_rows
        if op.expected_from
        else max(keys.shape[0], 1)
    )
    ht = HashTable(expected_keys=max(expected, 1), num_aggs=0)
    K.ht_insert_keys(session, ht, keys)
    state[op.state] = {"ht": ht}


def _op_join_build(
    session: Session, ctx: _Ctx, op: JoinBuild, state: Dict
) -> None:
    keys = _read_keys(session, ctx, op.key_column, op.access)
    ht = HashTable(expected_keys=max(keys.shape[0], 1), num_aggs=1)
    K.ht_insert_keys(session, ht, keys)
    carried = {
        name: ctx.carried.get(name, ctx.view.get(name))
        for name in op.carry
    }
    state[op.state] = {
        "ht": ht,
        "carried": carried,
        "rows": ctx.n,
        "encoded": _carried_encodings(ctx, op.carry),
    }


def _op_group_build(
    session: Session, ctx: _Ctx, op: GroupBuild, state: Dict
) -> None:
    keys = _read_keys(session, ctx, op.key_column, op.access)
    # +1 slot: the bookkeeping count column marking touched groups.
    ht = HashTable(
        expected_keys=max(keys.shape[0], 1), num_aggs=op.num_aggs + 1
    )
    K.ht_insert_keys(session, ht, keys)
    state[op.state] = {"ht": ht}


def _op_bitmap_build(
    session: Session, ctx: _Ctx, op: BitmapBuild, state: Dict
) -> None:
    mask = ctx.get_mask()
    nbytes = max(ctx.n // 8, 1)
    if op.mode == "mask":
        # Unconditional build: one sequential write of the whole map.
        session.tracer.emit(SeqWrite(n=nbytes, width=1, array="bitmap"))
    else:
        idx = _indices(session, ctx)
        session.tracer.emit(
            RandomAccess(
                n=int(idx.shape[0]), struct_bytes=nbytes, kind="bitmap_set"
            )
        )
    carried = {
        name: ctx.carried.get(name, ctx.view.get(name))
        for name in op.carry
    }
    state[op.state] = {
        "mask": mask.copy(),
        "rows": ctx.n,
        "carried": carried,
        "encoded": _carried_encodings(ctx, op.carry),
    }


def _op_hash_semi_probe(
    session: Session, ctx: _Ctx, op: HashSemiProbe, state: Dict
) -> None:
    ht = state[op.state]["ht"]
    mask = ctx.get_mask()
    if op.access == BRANCH:
        keys = K.conditional_read(
            session, ctx.view[op.fk_column], mask, op.fk_column
        )
        _decode(session, ctx, op.fk_column, int(keys.shape[0]))
        keys = keys.astype(np.int64)
        _, found = K.ht_lookup(session, ht, keys)
        k = int(keys.shape[0])
        taken = float(found.mean()) if k else 0.0
        session.tracer.emit(
            Branch(n=k, taken_fraction=taken, site=f"{op.state}-join")
        )
        new = mask.copy()
        new[mask] = found
    else:
        idx = _indices(session, ctx)
        keys = K.gather(
            session, ctx.view[op.fk_column], idx, op.fk_column
        )
        _decode(session, ctx, op.fk_column, int(keys.shape[0]))
        keys = keys.astype(np.int64)
        _, found = K.ht_lookup(session, ht, keys)
        session.tracer.emit(
            Compute(n=int(found.shape[0]), op="select", simd=False)
        )
        new = np.zeros(ctx.n, dtype=bool)
        new[idx[found]] = True
    session.tracer.emit(
        StatSample(
            kind="join_match",
            n=int(keys.shape[0]),
            value=float(found.sum()),
            site=f"{op.state}-join",
        )
    )
    if op.negate:
        new = ctx.get_mask() & ~new
    ctx.mask = new


def _op_bitmap_semi_probe(
    session: Session,
    ctx: _Ctx,
    op: BitmapSemiProbe,
    state: Dict,
    db: Database,
) -> None:
    built = state[op.state]
    offsets = _fk_offsets(db, ctx, op.fk_column)
    session.tracer.emit(
        SeqRead(n=ctx.n, width=8, array=f"fkindex({op.fk_column})")
    )
    session.tracer.emit(
        RandomAccess(
            n=ctx.n,
            struct_bytes=max(built["rows"] // 8, 1),
            kind="bitmap_test",
        )
    )
    session.tracer.emit(Compute(n=ctx.n, op="and", simd=True, width=1))
    hits = built["mask"][offsets]
    session.tracer.emit(
        StatSample(
            kind="join_match",
            n=ctx.n,
            value=float(hits.sum()),
            site=f"{op.state}-bitmap",
        )
    )
    ctx.narrow(hits)


def _op_column_materialize(
    session: Session, ctx: _Ctx, op: ColumnMaterialize, state: Dict
) -> None:
    emit_seq_reads(session, ctx.view, sorted(op.expr.columns()))
    if op.lut_entries:
        # Dictionary-driven LUT probes index by code — no decode: the
        # narrow code stream is the whole point of the access path.
        session.tracer.emit(
            RandomAccess(
                n=ctx.n, struct_bytes=op.lut_entries, kind="lut"
            )
        )
    else:
        _decode_cols(session, ctx, sorted(op.expr.columns()), ctx.n)
    values = np.asarray(op.expr.evaluate(ctx.view))
    out = values.view(np.uint8) if values.dtype == bool else values
    K.seq_write(session, out, op.column, resident=False)
    entry = state.setdefault(op.state, {"columns": {}, "rows": ctx.n})
    entry["columns"][op.column] = values


def _op_index_gather(
    session: Session,
    ctx: _Ctx,
    op: IndexGather,
    state: Dict,
    db: Database,
) -> None:
    built = state[op.state]
    offsets = _fk_offsets(db, ctx, op.fk_column)
    mask = ctx.get_mask()
    if op.access == BRANCH:
        K.conditional_read(
            session, ctx.view[op.fk_column], mask, op.fk_column
        )
        sel = np.flatnonzero(mask)
    else:
        sel = _indices(session, ctx)
        K.gather(session, offsets, sel, f"fkindex({op.fk_column})")
    session.tracer.emit(
        RandomAccess(
            n=int(sel.shape[0]),
            struct_bytes=built["rows"],
            kind="index_join",
        )
    )
    # Carried columns stay full morsel length; consumers index them with
    # whatever selection is live when they read them.
    for name in op.columns:
        ctx.carried[name] = built["columns"][name][offsets]


def _op_groupjoin_agg(
    session: Session, ctx: _Ctx, op: GroupJoinAgg, state: Dict
) -> Dict[str, np.ndarray]:
    ht = state[op.state]["ht"]
    mask = ctx.get_mask()
    base_cols = _base_cols(op.aggregates, ctx.view)
    if op.access == BRANCH:
        keys = K.conditional_read(
            session, ctx.view[op.fk_column], mask, op.fk_column
        )
        _decode(session, ctx, op.fk_column, int(keys.shape[0]))
        keys = keys.astype(np.int64)
        slots, found = K.ht_lookup(session, ht, keys)
        k = int(keys.shape[0])
        taken = float(found.mean()) if k else 0.0
        session.tracer.emit(
            Branch(n=k, taken_fraction=taken, site="join")
        )
        sel = np.flatnonzero(mask)[found]
        emit_cond_reads(session, ctx.view, base_cols, int(sel.shape[0]))
    else:
        idx = _indices(session, ctx)
        keys = K.gather(
            session, ctx.view[op.fk_column], idx, op.fk_column
        )
        _decode(session, ctx, op.fk_column, int(keys.shape[0]))
        keys = keys.astype(np.int64)
        slots, found = K.ht_lookup(session, ht, keys)
        session.tracer.emit(
            Compute(n=int(found.shape[0]), op="select", simd=False)
        )
        sel = idx[found]
        for col in base_cols:
            K.gather(session, ctx.view[col], sel, col)
    session.tracer.emit(
        StatSample(
            kind="join_match",
            n=int(keys.shape[0]),
            value=float(found.sum()),
            site="join",
        )
    )
    matched_slots = slots[found]
    kk = int(sel.shape[0])
    _decode_cols(session, ctx, base_cols, kk)
    sub = {c: ctx.view[c][sel] for c in base_cols}
    naggs = len(op.aggregates)
    for i, agg in enumerate(op.aggregates):
        deltas = _agg_deltas(session, agg, sub, kk, simd=False)
        K.ht_add_at(session, ht, matched_slots, i, deltas)
    K.ht_add_at(
        session, ht, matched_slots, naggs, np.ones(kk, dtype=np.int64)
    )
    out_keys, aggs = ht.items()
    touched = aggs[:, naggs] > 0
    session.tracer.emit(
        StatSample(
            kind="group_cardinality",
            n=ctx.n,
            value=float(int(touched.sum())),
        )
    )
    return grouped_result(out_keys[touched], aggs[touched, :naggs])


def _op_scalar_agg(
    session: Session, ctx: _Ctx, op: ScalarAgg
) -> Dict[str, Any]:
    if op.mode == PS.VALUE_MASK:
        return _scalar_value_mask(session, ctx, op)
    mask = ctx.get_mask()
    k = int(mask.sum())
    base_cols = _base_cols(op.aggregates, ctx.view)
    if op.mode == PS.CONDITIONAL:
        emit_cond_reads(session, ctx.view, base_cols, k)
        sel = np.flatnonzero(mask)
    elif op.mode == PS.GATHERED:
        sel = _indices(session, ctx)
        for col in base_cols:
            K.gather(session, ctx.view[col], sel, col)
    else:
        raise PlanError(f"unknown scalar aggregation mode {op.mode!r}")
    _decode_cols(session, ctx, base_cols, int(sel.shape[0]))
    sub = {c: ctx.view[c][sel] for c in base_cols}
    sub.update({name: vals[sel] for name, vals in ctx.carried.items()})
    result: Dict[str, Any] = {}
    for agg in op.aggregates:
        session.tracer.emit(Compute(n=k, op="add", simd=False))
        if agg.func == "count":
            result[agg.name] = k
            continue
        deltas = _agg_deltas(session, agg, sub, k, simd=False)
        result[agg.name] = int(np.sum(deltas, dtype=np.int64))
    return result


def _scalar_value_mask(
    session: Session, ctx: _Ctx, op: ScalarAgg
) -> Dict[str, Any]:
    """§III-A: unconditional sequential reads, masked accumulation."""
    view = ctx.view
    n = ctx.n
    mask = ctx.get_mask()
    mask_int = mask.astype(np.int64)
    emit_seq_reads(
        session,
        view,
        _base_cols(op.aggregates, view),
        already_read=ctx.already_read,
    )
    result: Dict[str, Any] = {}
    for agg in op.aggregates:
        if agg.func == "count":
            session.tracer.emit(Compute(n=n, op="add", simd=True))
            result[agg.name] = int(mask.sum())
            continue
        # Masked evaluation is unconditional, so encoded inputs decode
        # over the full stream before the arithmetic.
        _decode_cols(session, ctx, sorted(agg.expr.columns()), n)
        emit_expr_compute(session, agg.expr, n, simd=True)
        session.tracer.emit(Compute(n=n, op="mul", simd=True))  # masking
        session.tracer.emit(Compute(n=n, op="add", simd=True))  # accumulate
        values = np.asarray(agg.expr.evaluate(view), dtype=np.int64)
        result[agg.name] = int(np.sum(values * mask_int, dtype=np.int64))
    return result


def _op_group_agg(
    session: Session, ctx: _Ctx, op: GroupAgg
) -> Dict[str, np.ndarray]:
    if op.mode == PS.KEY_MASK:
        return _group_key_mask(session, ctx, op)
    if op.mode == PS.VALUE_MASK:
        return _group_value_mask(session, ctx, op)
    mask = ctx.get_mask()
    k = int(mask.sum())
    cols = sorted(
        (set(op.key.columns()) & set(ctx.view))
        | set(_base_cols(op.aggregates, ctx.view))
    )
    if op.mode == PS.CONDITIONAL:
        emit_cond_reads(session, ctx.view, cols, k)
        sel = np.flatnonzero(mask)
    elif op.mode == PS.GATHERED:
        sel = _indices(session, ctx)
        for col in cols:
            K.gather(session, ctx.view[col], sel, col)
    else:
        raise PlanError(f"unknown grouped aggregation mode {op.mode!r}")
    _decode_cols(session, ctx, cols, int(sel.shape[0]))
    sub = {c: ctx.view[c][sel] for c in cols}
    sub.update({name: vals[sel] for name, vals in ctx.carried.items()})
    keys = np.asarray(op.key.evaluate(sub), dtype=np.int64)
    table = HashTable(
        expected_keys=max(op.expected_groups, 1),
        num_aggs=len(op.aggregates),
    )
    _aggregate_into(
        session, table, keys, op.aggregates, sub, k, simd=False
    )
    out_keys, aggs = table.items()
    session.tracer.emit(
        StatSample(
            kind="group_cardinality",
            n=ctx.n,
            value=float(int(out_keys.shape[0])),
        )
    )
    return grouped_result(out_keys, aggs)


def _group_key_mask(
    session: Session, ctx: _Ctx, op: GroupAgg
) -> Dict[str, np.ndarray]:
    """§III-B: blend non-qualifying keys into the throwaway entry."""
    view = ctx.view
    n = ctx.n
    mask = ctx.get_mask()
    emit_seq_reads(
        session,
        view,
        sorted(op.key.columns()),
        already_read=ctx.already_read,
    )
    _decode_cols(session, ctx, sorted(op.key.columns()), n)
    emit_expr_compute(session, op.key, n, simd=True)
    raw_keys = np.asarray(op.key.evaluate(view), dtype=np.int64)
    keys = K.mask_keys(session, raw_keys, mask, op.key_name)
    emit_seq_reads(
        session,
        view,
        _base_cols(op.aggregates, view),
        already_read=ctx.already_read,
    )
    _decode_cols(session, ctx, _base_cols(op.aggregates, view), n)
    # +1 expected key: the NULL_KEY throwaway slot.
    table = HashTable(
        expected_keys=op.expected_groups + 1,
        num_aggs=len(op.aggregates),
    )
    _aggregate_into(
        session, table, keys, op.aggregates, view, n, simd=True
    )
    out_keys, aggs = table.items()
    keep = out_keys != NULL_KEY
    session.tracer.emit(
        StatSample(
            kind="group_cardinality",
            n=n,
            value=float(int(keep.sum())),
        )
    )
    return grouped_result(out_keys[keep], aggs[keep])


def _group_value_mask(
    session: Session, ctx: _Ctx, op: GroupAgg
) -> Dict[str, np.ndarray]:
    """§III-A grouped: real-key lookups, masked deltas, count column."""
    view = ctx.view
    n = ctx.n
    mask = ctx.get_mask()
    mask_int = mask.astype(np.int64)
    emit_seq_reads(
        session,
        view,
        sorted(op.key.columns()),
        already_read=ctx.already_read,
    )
    _decode_cols(session, ctx, sorted(op.key.columns()), n)
    emit_expr_compute(session, op.key, n, simd=True)
    keys = np.asarray(op.key.evaluate(view), dtype=np.int64)
    emit_seq_reads(
        session,
        view,
        _base_cols(op.aggregates, view),
        already_read=ctx.already_read,
    )
    _decode_cols(session, ctx, _base_cols(op.aggregates, view), n)
    naggs = len(op.aggregates)
    table = HashTable(
        expected_keys=max(op.expected_groups, 1), num_aggs=naggs + 1
    )
    slots = None
    for i, agg in enumerate(op.aggregates):
        if agg.func == "count":
            session.tracer.emit(Compute(n=n, op="add", simd=True))
            deltas = mask_int
        else:
            emit_expr_compute(session, agg.expr, n, simd=True)
            session.tracer.emit(Compute(n=n, op="mul", simd=True))
            deltas = (
                np.asarray(agg.expr.evaluate(view), dtype=np.int64)
                * mask_int
            )
        if slots is None:
            K.ht_aggregate(session, table, keys, deltas, agg=i)
            slots, _ = table.lookup(keys)
        else:
            K.ht_add_at(session, table, slots, i, deltas)
    K.ht_add_at(session, table, slots, naggs, mask_int)
    out_keys, aggs = table.items()
    valid = aggs[:, naggs] > 0
    session.tracer.emit(
        StatSample(
            kind="group_cardinality",
            n=n,
            value=float(int(valid.sum())),
        )
    )
    return grouped_result(out_keys[valid], aggs[valid, :naggs])


def _op_hash_join_carry_probe(
    session: Session,
    ctx: _Ctx,
    op: HashJoinCarryProbe,
    state: Dict,
    db: Database,
) -> None:
    built = state[op.state]
    ht = built["ht"]
    if ctx.mask is None:
        # First full-stream probe: the whole column is read sequentially
        # and this op drives the per-tuple loop.
        emit_seq_reads(session, ctx.view, [op.fk_column])
        _decode(session, ctx, op.fk_column, ctx.n)
        _, found = K.ht_lookup(
            session, ht, ctx.view[op.fk_column].astype(np.int64)
        )
        if op.access == BRANCH:
            taken = float(found.mean()) if ctx.n else 0.0
            session.tracer.emit(
                Branch(
                    n=ctx.n, taken_fraction=taken, site=f"{op.state}-join"
                )
            )
        else:
            session.tracer.emit(
                Compute(n=ctx.n, op="select", simd=False)
            )
        if not ctx.loop_charged:
            K.scalar_loop(session, ctx.n)
            ctx.loop_charged = True
        session.tracer.emit(
            StatSample(
                kind="join_match",
                n=ctx.n,
                value=float(found.sum()),
                site=f"{op.state}-join",
            )
        )
        ctx.narrow(found)
    else:
        mask = ctx.get_mask()
        if op.access == BRANCH:
            keys = K.conditional_read(
                session, ctx.view[op.fk_column], mask, op.fk_column
            )
            _decode(session, ctx, op.fk_column, int(keys.shape[0]))
            keys = keys.astype(np.int64)
            _, found = K.ht_lookup(session, ht, keys)
            k = int(keys.shape[0])
            taken = float(found.mean()) if k else 0.0
            session.tracer.emit(
                Branch(n=k, taken_fraction=taken, site=f"{op.state}-join")
            )
            new = mask.copy()
            new[mask] = found
        else:
            idx = _indices(session, ctx)
            keys = K.gather(
                session, ctx.view[op.fk_column], idx, op.fk_column
            )
            _decode(session, ctx, op.fk_column, int(keys.shape[0]))
            keys = keys.astype(np.int64)
            _, found = K.ht_lookup(session, ht, keys)
            session.tracer.emit(
                Compute(n=int(found.shape[0]), op="select", simd=False)
            )
            new = np.zeros(ctx.n, dtype=bool)
            new[idx[found]] = True
        session.tracer.emit(
            StatSample(
                kind="join_match",
                n=int(keys.shape[0]),
                value=float(found.sum()),
                site=f"{op.state}-join",
            )
        )
        ctx.mask = new
    offsets = _fk_offsets(db, ctx, op.fk_column)
    for name in op.carry:
        ctx.carried[name] = built["carried"][name][offsets]


def _op_carried_gather(
    session: Session,
    ctx: _Ctx,
    op: CarriedGather,
    state: Dict,
    db: Database,
) -> None:
    """Late materialization: pull build-side columns through the FK
    index for the surviving rows (priced), or silently compose them for
    a downstream build (unpriced — the consumer prices its own access)."""
    built = state[op.state]
    offsets = _fk_offsets(db, ctx, op.fk_column)
    encoded = built.get("encoded", {})
    if op.priced:
        sel = _indices(session, ctx)
        k = int(sel.shape[0])
        for name in op.columns:
            vals = built["carried"][name]
            session.tracer.emit(
                RandomAccess(
                    n=k,
                    struct_bytes=int(vals.shape[0]) * vals.dtype.itemsize,
                    kind=f"gather({name})",
                )
            )
            if name in encoded and k:
                session.tracer.emit(
                    Compute(
                        n=k, op="decode", simd=True, width=encoded[name]
                    )
                )
    for name in op.columns:
        ctx.carried[name] = built["carried"][name][offsets]


def _op_exists_bitmap_build(
    session: Session,
    ctx: _Ctx,
    op: ExistsBitmapBuild,
    state: Dict,
    db: Database,
) -> None:
    """SWOLE existential build: fold the FK side's qualifying rows into
    a positional bitmap over the probe table's primary-key domain."""
    offsets = _fk_offsets(db, ctx, op.fk_column)
    session.tracer.emit(
        SeqRead(n=ctx.n, width=8, array=f"fkindex({op.fk_column})")
    )
    session.tracer.emit(Compute(n=ctx.n, op="or", simd=True, width=1))
    probe_rows = db.table(op.probe_table).num_rows
    nbytes = max(probe_rows // 8, 1)
    if op.mode == "mask":
        session.tracer.emit(SeqWrite(n=nbytes, width=1, array="bitmap"))
    else:
        idx = _indices(session, ctx)
        session.tracer.emit(
            RandomAccess(
                n=int(idx.shape[0]), struct_bytes=nbytes, kind="bitmap_set"
            )
        )
    exists = np.zeros(probe_rows, dtype=bool)
    exists[offsets[ctx.get_mask()]] = True
    state[op.state] = {"exists": exists, "rows": probe_rows}


def _op_exists_bitmap_probe(
    session: Session, ctx: _Ctx, op: ExistsBitmapProbe, state: Dict
) -> None:
    built = state[op.state]
    session.tracer.emit(
        SeqRead(n=max(ctx.n // 8, 1), width=1, array="bitmap")
    )
    session.tracer.emit(Compute(n=ctx.n, op="and", simd=True, width=1))
    bit = built["exists"][ctx.lo : ctx.lo + ctx.n]
    hits = ~bit if op.anti else bit
    session.tracer.emit(
        StatSample(
            kind="join_match",
            n=ctx.n,
            value=float(hits.sum()),
            site=f"{op.state}-exists",
        )
    )
    ctx.narrow(hits)


def _op_outer_groupjoin_agg(
    session: Session,
    ctx: _Ctx,
    op: OuterGroupJoinAgg,
    state: Dict,
    db: Database,
) -> None:
    """Outer groupjoin (Q13): count qualifying probe rows per build key.
    Build rows that never match simply stay absent (or zero) here; the
    distribution op restores them as count-0 groups."""
    nc = db.table(op.build_table).num_rows
    fk = ctx.view[op.fk_column]
    mask = ctx.get_mask()
    if op.mode == PS.KEY_MASK:
        ht = HashTable(expected_keys=nc + 1, num_aggs=1)
        _decode(session, ctx, op.fk_column, ctx.n)
        keys = K.mask_keys(
            session, fk.astype(np.int64), mask, op.fk_column
        )
        K.ht_aggregate(session, ht, keys, np.ones(ctx.n, dtype=np.int64))
    elif op.mode == PS.VALUE_MASK:
        ht = HashTable(expected_keys=max(nc, 1), num_aggs=1)
        emit_seq_reads(
            session, ctx.view, [op.fk_column], already_read=ctx.already_read
        )
        _decode(session, ctx, op.fk_column, ctx.n)
        session.tracer.emit(Compute(n=ctx.n, op="mul", simd=True, width=8))
        K.ht_aggregate(
            session, ht, fk.astype(np.int64), mask.astype(np.int64)
        )
    elif op.mode == PS.CONDITIONAL:
        ht = HashTable(expected_keys=max(nc, 1), num_aggs=1)
        keys = K.conditional_read(session, fk, mask, op.fk_column)
        _decode(session, ctx, op.fk_column, int(keys.shape[0]))
        keys = keys.astype(np.int64)
        K.ht_aggregate(
            session, ht, keys, np.ones(keys.shape[0], dtype=np.int64)
        )
    elif op.mode == PS.GATHERED:
        ht = HashTable(expected_keys=max(nc, 1), num_aggs=1)
        sel = _indices(session, ctx)
        keys = K.gather(session, fk, sel, op.fk_column)
        _decode(session, ctx, op.fk_column, int(keys.shape[0]))
        keys = keys.astype(np.int64)
        K.ht_aggregate(
            session, ht, keys, np.ones(keys.shape[0], dtype=np.int64)
        )
    else:
        raise PlanError(f"unknown outer groupjoin mode {op.mode!r}")
    state[op.state] = {"ht": ht, "rows": nc}


def _op_group_distribution(
    session: Session, ctx: _Ctx, op: GroupDistribution, state: Dict
) -> Dict[str, np.ndarray]:
    """Second grouping over the groupjoin's per-key counts; unmatched
    build rows land in the zero bucket (outer-join semantics)."""
    built = state[op.state]
    ht = built["ht"]
    keys, aggs = ht.items()
    keep = keys != NULL_KEY
    per_key = aggs[keep, 0]
    session.tracer.emit(
        SeqRead(
            n=int(per_key.shape[0]), width=8, array=f"ht({op.key_name})"
        )
    )
    values, counts = np.unique(per_key, return_counts=True)
    buckets = dict(zip(values.tolist(), counts.tolist()))
    missing = int(built["rows"]) - int(per_key.shape[0])
    if missing:
        buckets[0] = buckets.get(0, 0) + missing
    table = HashTable(expected_keys=max(len(buckets), 1), num_aggs=1)
    K.ht_aggregate(
        session,
        table,
        np.asarray(list(buckets.keys()), dtype=np.int64),
        np.asarray(list(buckets.values()), dtype=np.int64),
    )
    out_keys, out = table.items()
    session.tracer.emit(
        StatSample(
            kind="group_cardinality",
            n=int(built["rows"]),
            value=float(int(out_keys.shape[0])),
        )
    )
    return grouped_result(out_keys, out)


def _op_multi_bitmap_build(
    session: Session, ctx: _Ctx, op: MultiBitmapBuild, state: Dict
) -> None:
    """Q19-style SWOLE build: one scan of the build table produces one
    positional bitmap per disjunct arm."""
    cols: Set[str] = set()
    total_cmps = 0
    for bp in op.disjuncts:
        cols |= bp.columns()
        total_cmps += compare_count(bp)
    emit_seq_reads(session, ctx.view, sorted(cols))
    session.tracer.emit(
        Compute(n=total_cmps * ctx.n, op="cmp", simd=True, width=4)
    )
    session.tracer.emit(
        SeqWrite(
            n=len(op.disjuncts) * max(ctx.n // 8, 1),
            width=1,
            array="bitmaps",
        )
    )
    masks = [
        np.asarray(bp.evaluate(ctx.view), dtype=bool)
        for bp in op.disjuncts
    ]
    state[op.state] = {"masks": masks, "rows": ctx.n}


def _op_disjunct_index_probe(
    session: Session,
    ctx: _Ctx,
    op: DisjunctIndexProbe,
    state: Dict,
    db: Database,
) -> None:
    """Tuple-at-a-time disjunction: index-join into the build table and
    evaluate every (build-pred AND probe-pred) arm per surviving row."""
    build = db.data(op.state)
    nparts = db.table(op.state).num_rows
    offsets = _fk_offsets(db, ctx, op.fk_column)
    mask = ctx.get_mask()
    k = int(mask.sum())
    probe_cols = sorted(
        set().union(*(pp.columns() for _, pp in op.disjuncts))
    )
    build_cols = sorted(
        set().union(*(bp.columns() for bp, _ in op.disjuncts))
    )
    width_sum = sum(build[c].dtype.itemsize for c in build_cols)
    if op.access == BRANCH:
        emit_cond_reads(session, ctx.view, probe_cols, k)
    else:
        sel = _indices(session, ctx)
        for col in probe_cols:
            K.gather(session, ctx.view[col], sel, col)
    session.tracer.emit(
        RandomAccess(
            n=k, struct_bytes=nparts * width_sum, kind="index_join"
        )
    )
    session.tracer.emit(
        Compute(n=3 * len(op.disjuncts) * k, op="cmp", simd=False)
    )
    build_rows = {c: build[c][offsets] for c in build_cols}
    hit = np.zeros(ctx.n, dtype=bool)
    for bp, pp in op.disjuncts:
        hit |= np.asarray(bp.evaluate(build_rows), dtype=bool) & np.asarray(
            pp.evaluate(ctx.view), dtype=bool
        )
    final = mask & hit
    if op.access == BRANCH:
        taken = (float(final.sum()) / k) if k else 0.0
        session.tracer.emit(
            Branch(n=k, taken_fraction=taken, site="disjunction")
        )
    else:
        session.tracer.emit(Compute(n=k, op="select", simd=False))
    session.tracer.emit(
        StatSample(
            kind="join_match",
            n=ctx.n,
            value=float(hit.sum()),
            site="disjunction",
        )
    )
    ctx.mask = final


def _op_disjunct_bitmap_probe(
    session: Session,
    ctx: _Ctx,
    op: DisjunctBitmapProbe,
    state: Dict,
    db: Database,
) -> None:
    """SWOLE disjunction: test each arm's positional bitmap through the
    FK index and AND it with that arm's probe-side predicate."""
    built = state[op.state]
    offsets = _fk_offsets(db, ctx, op.fk_column)
    probe_cols = sorted(
        set().union(*(pp.columns() for _, pp in op.disjuncts))
    )
    emit_seq_reads(
        session, ctx.view, probe_cols, already_read=ctx.already_read
    )
    total_cmps = sum(compare_count(pp) for _, pp in op.disjuncts)
    session.tracer.emit(
        Compute(n=total_cmps * ctx.n, op="cmp", simd=True, width=4)
    )
    sel = _indices(session, ctx)
    k = int(sel.shape[0])
    K.gather(session, offsets, sel, f"fkindex({op.fk_column})")
    session.tracer.emit(
        RandomAccess(
            n=len(op.disjuncts) * k,
            struct_bytes=max(built["rows"] // 8, 1),
            kind="bitmap_test",
        )
    )
    session.tracer.emit(
        Compute(n=2 * len(op.disjuncts) * k, op="and", simd=True, width=1)
    )
    hit = np.zeros(ctx.n, dtype=bool)
    for (_, pp), bm in zip(op.disjuncts, built["masks"]):
        hit |= bm[offsets] & np.asarray(pp.evaluate(ctx.view), dtype=bool)
    session.tracer.emit(
        StatSample(
            kind="join_match",
            n=ctx.n,
            value=float(hit.sum()),
            site="disjunction",
        )
    )
    ctx.narrow(hit)


# ---------------------------------------------------------------------------
# Pipeline / plan drivers
# ---------------------------------------------------------------------------


def _run_ops(
    session: Session,
    db: Database,
    pipe: Pipeline,
    state: Dict[str, Dict[str, Any]],
    ctx: _Ctx,
) -> Optional[Dict[str, Any]]:
    result: Optional[Dict[str, Any]] = None
    for op in pipe.ops:
        if isinstance(op, FilterStage):
            _op_filter(session, ctx, op)
        elif isinstance(op, SemiHashBuild):
            _op_semihash_build(session, ctx, op, state, db)
        elif isinstance(op, JoinBuild):
            _op_join_build(session, ctx, op, state)
        elif isinstance(op, GroupBuild):
            _op_group_build(session, ctx, op, state)
        elif isinstance(op, BitmapBuild):
            _op_bitmap_build(session, ctx, op, state)
        elif isinstance(op, MultiBitmapBuild):
            _op_multi_bitmap_build(session, ctx, op, state)
        elif isinstance(op, ExistsBitmapBuild):
            _op_exists_bitmap_build(session, ctx, op, state, db)
        elif isinstance(op, HashSemiProbe):
            _op_hash_semi_probe(session, ctx, op, state)
        elif isinstance(op, HashJoinCarryProbe):
            _op_hash_join_carry_probe(session, ctx, op, state, db)
        elif isinstance(op, BitmapSemiProbe):
            _op_bitmap_semi_probe(session, ctx, op, state, db)
        elif isinstance(op, ExistsBitmapProbe):
            _op_exists_bitmap_probe(session, ctx, op, state)
        elif isinstance(op, CarriedGather):
            _op_carried_gather(session, ctx, op, state, db)
        elif isinstance(op, DisjunctIndexProbe):
            _op_disjunct_index_probe(session, ctx, op, state, db)
        elif isinstance(op, DisjunctBitmapProbe):
            _op_disjunct_bitmap_probe(session, ctx, op, state, db)
        elif isinstance(op, ColumnMaterialize):
            _op_column_materialize(session, ctx, op, state)
        elif isinstance(op, IndexGather):
            _op_index_gather(session, ctx, op, state, db)
        elif isinstance(op, GroupJoinAgg):
            result = _op_groupjoin_agg(session, ctx, op, state)
        elif isinstance(op, OuterGroupJoinAgg):
            _op_outer_groupjoin_agg(session, ctx, op, state, db)
        elif isinstance(op, GroupDistribution):
            result = _op_group_distribution(session, ctx, op, state)
        elif isinstance(op, ScalarAgg):
            result = _op_scalar_agg(session, ctx, op)
        elif isinstance(op, GroupAgg):
            result = _op_group_agg(session, ctx, op)
        else:
            raise PlanError(f"cannot execute physical op {op!r}")
    return result


def run_pipeline(
    session: Session,
    db: Database,
    pipe: Pipeline,
    state: Dict[str, Dict[str, Any]],
    view: Dict[str, np.ndarray],
) -> Optional[Dict[str, Any]]:
    """Run one pipeline over ``view``; returns the terminal op's result
    (None for build pipelines)."""
    if len(pipe.ops) == 1 and isinstance(pipe.ops[0], EagerAggregate):
        # The eager kernels manage their own kernel/overlap scopes (they
        # are also the morsel-splittable parallel path).
        return eager_aggregation.groupjoin_pipeline(
            session, db, pipe.ops[0]
        )
    if len(pipe.ops) == 1 and isinstance(pipe.ops[0], GroupDistribution):
        # The distribution pass re-reads the groupjoin hash table, not
        # the base columns; the hand-coded q13 runs it as a standalone
        # kernel with no access/compute overlap window.
        ctx = _Ctx(
            view,
            pipe.table,
            merged=bool(pipe.merged),
            encodings=pipe.encodings,
        )
        with session.tracer.kernel(pipe.label):
            return _run_ops(session, db, pipe, state, ctx)
    ctx = _Ctx(
        view,
        pipe.table,
        merged=bool(pipe.merged),
        encodings=pipe.encodings,
    )
    with session.tracer.kernel(pipe.label), session.tracer.overlap():
        return _run_ops(session, db, pipe, state, ctx)


def run_partial(
    session: Session,
    db: Database,
    pipe: Pipeline,
    view: Dict[str, np.ndarray],
    state: Optional[Dict[str, Dict[str, Any]]] = None,
    lo: int = 0,
) -> Optional[Dict[str, Any]]:
    """Run a partitionable pipeline over one morsel's row-range view.

    The morsel driver supplies its own kernel scope per morsel, so only
    the overlap window is opened here (mirroring the hand-coded
    strategies' parallel bodies). ``state`` carries hash tables and
    bitmaps built once in the setup phase; ``lo`` is the morsel's row
    offset so FK-index slices line up with the view.
    """
    ctx = _Ctx(
        view,
        pipe.table,
        merged=bool(pipe.merged),
        lo=lo,
        encodings=pipe.encodings,
    )
    with session.tracer.overlap():
        return _run_ops(
            session, db, pipe, state if state is not None else {}, ctx
        )


def execute_plan(
    plan: PhysicalPlan, db: Database, session: Session
) -> Dict[str, Any]:
    """Run every pipeline in order; the last one produces the answer."""
    if plan.interpreted:
        for pipe in plan.pipelines:
            K.interpreter_overhead(
                session, db.table(pipe.table).num_rows, 2
            )
    state: Dict[str, Dict[str, Any]] = {}
    result: Optional[Dict[str, Any]] = None
    for pipe in plan.pipelines:
        result = run_pipeline(
            session, db, pipe, state, db.scan_view(pipe.table, pipe.encodings)
        )
    if result is None:
        raise PlanError("physical plan produced no result")
    return result


__all__ = ["execute_plan", "run_partial", "run_pipeline"]
