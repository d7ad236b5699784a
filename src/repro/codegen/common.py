"""Helpers shared by the physical-plan interpreter and the technique
kernels it calls.

These build on the kernel library to express the recurring pieces —
per-conjunct predicate evaluation with the right access pattern, event
accounting for column reads and expression arithmetic, and result
normalisation — so the operator bodies read like the paper's pseudocode.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from ..engine import kernels as K
from ..engine.events import Branch, Compute, CondRead, SeqRead
from ..engine.session import Session
from ..plan.expressions import Expr, StrMatch, arith_ops
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


def datacentric_predicate(
    session: Session, data: Dict[str, np.ndarray], conjs: Sequence[Expr]
) -> np.ndarray:
    """Short-circuit conjunctive predicate, tuple at a time.

    The first conjunct reads its columns sequentially; later conjuncts are
    evaluated only for tuples that survived the prefix, so their column
    accesses are conditional and each conjunct is a branch site with its
    measured conditional selectivity — the Ross-style branching code whose
    mispredictions create the paper's selectivity hump.
    """
    n = int(next(iter(data.values())).shape[0])
    remaining = np.ones(n, dtype=bool)
    survivors = n
    for i, conj in enumerate(conjs):
        if isinstance(conj, StrMatch):
            # LIKE predicates price as a per-row strcmp over the string
            # column itself (the flag column is the oracle's shortcut,
            # not an access the generated program performs).
            term = np.asarray(conj.evaluate(data), dtype=bool)
            K.string_match(session, term, conj.column)
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
            term = conj.evaluate(data)
        passed = remaining & term
        new_survivors = int(passed.sum())
        taken = new_survivors / survivors if survivors else 0.0
        session.tracer.emit(
            Branch(n=survivors, taken_fraction=taken, site=f"pred{i}")
        )
        remaining = passed
        survivors = new_survivors
        if survivors == 0:
            break
    K.scalar_loop(session, n)
    return remaining


def prepass_predicate(
    session: Session,
    data: Dict[str, np.ndarray],
    conjs: Sequence[Expr],
    already_read: Optional[Set[str]] = None,
) -> np.ndarray:
    """Prepass predicate evaluation (hybrid/ROF/SWOLE form).

    Every conjunct is evaluated over the *whole* column with SIMD and the
    0/1 results are ANDed — no control dependency, no branches, purely
    sequential accesses.
    """
    n = int(next(iter(data.values())).shape[0])
    mask = np.ones(n, dtype=bool)
    # string_match already includes the resident mask write; a predicate
    # that is nothing but LIKEs skips the extra combined-mask pass.
    wrote_mask = not all(isinstance(c, StrMatch) for c in conjs)
    for i, conj in enumerate(conjs):
        if isinstance(conj, StrMatch):
            term = np.asarray(conj.evaluate(data), dtype=bool)
            K.string_match(session, term, conj.column)
        else:
            cols = sorted(conj.columns())
            emit_seq_reads(session, data, cols, already_read=already_read)
            width = max(column_width(data, c) for c in cols) if cols else 8
            session.tracer.emit(
                Compute(n=n, op="cmp", simd=True, width=width)
            )
            emit_expr_compute(session, conj, n, simd=True, width=width)
            term = conj.evaluate(data)
        if i > 0:
            session.tracer.emit(Compute(n=n, op="and", simd=True, width=1))
        mask = mask & term
    if wrote_mask:
        K.seq_write(session, mask.view(np.uint8), "cmp", resident=True)
    return mask


def agg_exprs_columns(aggs: Sequence[AggSpec]) -> Tuple[str, ...]:
    """All columns referenced by the aggregate expressions (sorted)."""
    cols: Set[str] = set()
    for agg in aggs:
        if agg.expr is not None:
            cols |= agg.expr.columns()
    return tuple(sorted(cols))


def grouped_result(keys: np.ndarray, aggs: np.ndarray) -> Dict[str, np.ndarray]:
    """Normalise grouped output: keys ascending, aggregates aligned."""
    order = np.argsort(keys, kind="stable")
    return {"keys": keys[order], "aggs": aggs[order]}
