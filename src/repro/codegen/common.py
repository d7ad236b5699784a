"""Helpers shared by the kernel emitters, the NumPy runtime and the
pricing of measured counts (:mod:`repro.codegen.price`).

The recurring pieces — event accounting for column reads and expression
arithmetic, row-range views, aggregate input columns — so the pricing
of each operator reads like the paper's pseudocode.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from ..engine.events import Compute, CondRead, SeqRead
from ..engine.session import Session
from ..plan.expressions import Expr, arith_ops
from ..plan.ops import AggSpec


def column_width(data: Dict[str, np.ndarray], name: str) -> int:
    return int(data[name].dtype.itemsize)


def slice_columns(
    data: Dict[str, np.ndarray], lo: int, hi: int
) -> Dict[str, np.ndarray]:
    """A zero-copy row-range view of a column dict (one morsel's input)."""
    return {name: values[lo:hi] for name, values in data.items()}


def table_rows(data: Dict[str, np.ndarray]) -> int:
    """Row count of a column dict."""
    return int(next(iter(data.values())).shape[0])


def dense_spread_limit(rows: int) -> int:
    """Widest key spread (max - min) grouped by counting rather than
    sorting: keeps the per-group tables O(rows). Dense keys (dictionary
    codes, group expressions, FK ids) qualify; sparse ones (hashes,
    wide surrogate keys) do not."""
    return max(65536, 4 * rows)


def emit_seq_reads(
    session: Session,
    data: Dict[str, np.ndarray],
    cols: Sequence[str],
    already_read: Optional[Set[str]] = None,
) -> None:
    """Account sequential reads of ``cols``.

    ``already_read`` implements access merging: columns in the set were
    read earlier in the same fused loop, so re-reads are free (register/
    cache reuse) and the set is updated in place.
    """
    for name in sorted(set(cols)):
        if already_read is not None:
            if name in already_read:
                continue
            already_read.add(name)
        session.tracer.emit(
            SeqRead(
                n=int(data[name].shape[0]),
                width=column_width(data, name),
                array=name,
            )
        )


def emit_cond_reads(
    session: Session,
    data: Dict[str, np.ndarray],
    cols: Sequence[str],
    n_selected: int,
) -> None:
    """Account conditional reads of ``cols`` at the measured density."""
    for name in sorted(set(cols)):
        session.tracer.emit(
            CondRead(
                n_range=int(data[name].shape[0]),
                n_selected=int(n_selected),
                width=column_width(data, name),
                array=name,
            )
        )


def emit_expr_compute(
    session: Session, expr: Expr, n: int, simd: bool, width: int = 8
) -> None:
    """Account the arithmetic inside ``expr`` applied to ``n`` elements."""
    for op in arith_ops(expr):
        session.tracer.emit(Compute(n=n, op=op, simd=simd, width=width))


def agg_exprs_columns(aggs: Sequence[AggSpec]) -> Tuple[str, ...]:
    """All columns referenced by the aggregate expressions (sorted)."""
    cols: Set[str] = set()
    for agg in aggs:
        if agg.expr is not None:
            cols |= agg.expr.columns()
    return tuple(sorted(cols))
