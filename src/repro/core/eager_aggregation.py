"""Eager aggregation (paper §III-E).

For a groupjoin (join key == group-by key), SWOLE reverses build and
probe: it *unconditionally* aggregates the probe table grouped by its
foreign key — purely sequential reads, SIMD arithmetic, and hash updates
into a table whose size is bounded by the build table's key count — and
then deletes non-qualifying keys with one sequential scan of the build
table (predicate inverted). Wasted work (aggregates later deleted) buys
the access pattern.

If the probe side has its own predicate, its keys are *key-masked* into
the throwaway entry, composing §III-B with §III-E.
:func:`groupjoin_pipeline` prices both scans as one serial pass.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..codegen.common import (
    agg_exprs_columns,
    emit_cond_reads,
    emit_expr_compute,
    emit_seq_reads,
    grouped_result,
    prepass_predicate,
    table_rows,
)
from ..engine import kernels as K
from ..engine.events import Compute, RandomAccess
from ..engine.hashtable import NULL_KEY, HashTable
from ..engine.session import Session
from ..plan.physical import EagerAggregate
from ..storage.database import Database


def groupjoin_pipeline(
    session: Session,
    db: Database,
    op: EagerAggregate,
) -> Dict[str, Any]:
    """Groupjoin rewritten as eager aggregation + cleanup deletions.

    Step 1 aggregates the whole probe table unconditionally, keeping
    the ``NULL_KEY`` throwaway and a trailing count column; step 2 scans
    the build table, deletes the keys whose build row fails the build
    predicate, drops the throwaway entry and groups that saw no
    unmasked tuple, and strips the count column.
    """
    view = db.data(op.table)
    n = table_rows(view)
    num_aggs = len(op.aggregates) + 1
    build_rows = db.table(op.build_table).num_rows
    with session.tracer.kernel(f"eager aggregate {op.table}"), \
            session.tracer.overlap():
        emit_seq_reads(session, view, [op.fk_column])
        keys = view[op.fk_column].astype(np.int64)
        if op.probe_conjuncts:
            mask = prepass_predicate(session, view, op.probe_conjuncts)
            keys = K.mask_keys(session, keys, mask, op.fk_column)
        table = HashTable(expected_keys=build_rows + 1, num_aggs=num_aggs)
        cols = agg_exprs_columns(op.aggregates)
        emit_seq_reads(session, view, cols)
        slots = None
        for i, agg in enumerate(op.aggregates):
            if agg.func == "count":
                deltas = np.ones(n, dtype=np.int64)
                session.tracer.emit(Compute(n=n, op="add", simd=True))
            else:
                emit_expr_compute(session, agg.expr, n, simd=True)
                deltas = np.asarray(agg.expr.evaluate(view), dtype=np.int64)
            if slots is None:
                K.ht_aggregate(session, table, keys, deltas, agg=i)
                slots, _ = table.lookup(keys)
            else:
                K.ht_add_at(session, table, slots, i, deltas)
        if slots is None:
            slots, _ = table.lookup(keys)
        K.ht_add_at(
            session,
            table,
            slots,
            num_aggs - 1,
            np.ones(n, dtype=np.int64),
        )
    result_keys, aggs = table.items()
    result_keys = np.asarray(result_keys, dtype=np.int64)
    aggs = np.atleast_2d(np.asarray(aggs))
    if result_keys.size == 0:
        aggs = aggs.reshape(0, num_aggs)

    build_data = db.data(op.build_table)
    bn = table_rows(build_data)
    with session.tracer.kernel(f"cleanup scan {op.build_table}"), \
            session.tracer.overlap():
        if op.build_conjuncts:
            # note the inversion: delete rows that do NOT qualify
            keep = prepass_predicate(
                session, build_data, op.build_conjuncts
            )
            delete_mask = ~keep
            session.tracer.emit(Compute(n=bn, op="cmp", simd=True, width=1))
        else:
            delete_mask = np.zeros(bn, dtype=bool)
        k = int(delete_mask.sum())
        deleted = np.zeros(result_keys.shape[0], dtype=bool)
        if k:
            emit_cond_reads(session, build_data, [op.pk_column], k)
            victims = build_data[op.pk_column][delete_mask].astype(np.int64)
            # random deletions against the eager table (same footprint the
            # hash-table path would pay)
            sizing = HashTable(expected_keys=build_rows + 1, num_aggs=0)
            session.tracer.emit(
                RandomAccess(
                    n=k,
                    struct_bytes=sizing.nbytes,
                    kind="ht_delete",
                    op_cycles=session.machine.op_cost("hash"),
                )
            )
            deleted = np.isin(result_keys, victims)

    keep = (
        ~deleted
        & (result_keys != NULL_KEY)
        & (aggs[:, num_aggs - 1] > 0)
    )
    return grouped_result(
        result_keys[keep], aggs[keep, : len(op.aggregates)]
    )
