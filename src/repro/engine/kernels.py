"""The shared kernel library of the hand-coded TPC-H programs.

Each kernel does the real work with NumPy *and* emits the events the
equivalent compiled C would generate against the memory system. The
hand-coded strategy programs (:func:`repro.tpch.oracle_tpch`) compose
them — as the paper uses the same library code across its hand-coded
strategies — and the generic compiler's pricing
(:mod:`repro.codegen.price`) shares their per-access costs
(:func:`ht_op_cycles`, the loop overheads), so both price identical
access patterns identically.

Conventions:

* ``session`` is always the first argument.
* ``array`` names identify the column being touched in cost breakdowns.
* Element width is taken from the NumPy dtype.
* Kernels that read through a selection vector emit
  :class:`~repro.engine.events.CondRead` (the ``s_trav_cr`` pattern);
  kernels used by predicate pullups emit :class:`SeqRead` instead — that
  substitution *is* the paper's contribution, made measurable.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from .events import (
    Branch,
    CondRead,
    Compute,
    RandomAccess,
    SeqRead,
    SeqWrite,
    TupleOverhead,
)
from .hashtable import NULL_KEY, HashTable
from .session import Session

#: Comparison operators supported by predicate kernels.
_COMPARE_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


#: Rows of the cache-resident tile an intermediate (``cmp``, ``idx``,
#: masked keys) occupies: the paper's vector size (Menon et al.).
TILE_ROWS = 1024


def _width(values: np.ndarray) -> int:
    return int(values.dtype.itemsize)


# ---------------------------------------------------------------------------
# Sequential column access
# ---------------------------------------------------------------------------


def seq_read(session: Session, values: np.ndarray, array: str) -> np.ndarray:
    """Sequentially read a whole column (predicate pullup's access path)."""
    session.tracer.emit(
        SeqRead(n=values.shape[0], width=_width(values), array=array)
    )
    return values


def seq_write(
    session: Session,
    values: np.ndarray,
    array: str,
    resident: bool = False,
) -> np.ndarray:
    """Account a sequential write of ``values`` (e.g. a masked key array)."""
    price_seq_write(session, values.shape[0], _width(values), array, resident)
    return values


def price_seq_write(
    session: Session, n: int, width: int, array: str, resident: bool = False
) -> None:
    """A sequential write of ``n`` elements of ``width`` bytes.
    ``resident`` marks a tile-sized intermediate that stays in cache
    (one :data:`TILE_ROWS` tile)."""
    session.tracer.emit(
        SeqWrite(
            n=n,
            width=width,
            array=array,
            array_bytes=TILE_ROWS * width if resident else 0,
        )
    )


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def compare(
    session: Session,
    values: np.ndarray,
    op: str,
    operand,
    array: str,
    simd: bool = True,
    read: bool = True,
) -> np.ndarray:
    """Evaluate ``values <op> operand`` over the whole column.

    This is the *prepass* form: no control dependency, so it is SIMD-able
    (``simd=True``). Data-centric code passes ``simd=False`` because its
    ``if`` precludes vectorisation. The comparison result is written to a
    tile-resident ``cmp`` array.
    """
    try:
        func = _COMPARE_OPS[op]
    except KeyError as exc:
        raise ExecutionError(f"unknown comparison {op!r}") from exc
    if read:
        seq_read(session, values, array)
    session.tracer.emit(
        Compute(n=values.shape[0], op="cmp", simd=simd, width=_width(values))
    )
    result = func(values, operand)
    seq_write(session, result.view(np.uint8), f"cmp({array})", resident=True)
    return result


def compare_columns(
    session: Session,
    left: np.ndarray,
    right: np.ndarray,
    op: str,
    arrays: Tuple[str, str],
    simd: bool = True,
    read: bool = True,
) -> np.ndarray:
    """Column-vs-column comparison (e.g. ``l_commitdate < l_receiptdate``)."""
    try:
        func = _COMPARE_OPS[op]
    except KeyError as exc:
        raise ExecutionError(f"unknown comparison {op!r}") from exc
    if read:
        seq_read(session, left, arrays[0])
        seq_read(session, right, arrays[1])
    session.tracer.emit(
        Compute(n=left.shape[0], op="cmp", simd=simd, width=_width(left))
    )
    result = func(left, right)
    seq_write(
        session, result.view(np.uint8), f"cmp({arrays[0]})", resident=True
    )
    return result


def isin(
    session: Session,
    values: np.ndarray,
    members: Sequence[int],
    array: str,
    simd: bool = True,
    read: bool = True,
) -> np.ndarray:
    """``value IN (...)`` evaluated as an OR of SIMD comparisons."""
    if read:
        seq_read(session, values, array)
    session.tracer.emit(
        Compute(
            n=values.shape[0] * max(len(members), 1),
            op="cmp",
            simd=simd,
            width=_width(values),
        )
    )
    result = np.isin(values, np.asarray(list(members), dtype=values.dtype))
    seq_write(session, result.view(np.uint8), f"cmp({array})", resident=True)
    return result


def string_match(
    session: Session,
    mask: np.ndarray,
    array: str,
    per_tuple_op: str = "strcmp",
) -> np.ndarray:
    """Account a string/LIKE predicate whose boolean result is ``mask``.

    LIKE with wildcards cannot be SIMD-vectorised (paper's Q13
    discussion), so the cost is scalar per tuple regardless of strategy.
    The caller computes ``mask`` from decoded/dictionary data.
    """
    price_string_match(session, mask.shape[0], array, per_tuple_op)
    return mask


def price_string_match(
    session: Session, n: int, array: str, per_tuple_op: str = "strcmp"
) -> None:
    """A scalar string predicate over ``n`` rows plus its resident
    result write."""
    session.tracer.emit(
        Compute(n=n, op=per_tuple_op, simd=False, width=1)
    )
    price_seq_write(session, n, 1, f"cmp({array})", resident=True)


# ---------------------------------------------------------------------------
# Selection vectors and conditional access
# ---------------------------------------------------------------------------


def selection_vector(
    session: Session, mask: np.ndarray, branching: bool = False
) -> np.ndarray:
    """Build a selection vector (indexes of set positions) from a mask.

    The default is the *no-branch* (predicated) version from Ross: a data
    dependency costing a couple of cycles for every tuple. The branching
    version costs per selected tuple but pays mispredictions.
    """
    n = int(mask.shape[0])
    idx = np.flatnonzero(mask).astype(np.int64)
    if branching:
        taken = float(mask.mean()) if n else 0.0
        session.tracer.emit(Branch(n=n, taken_fraction=taken, site="selvec"))
        session.tracer.emit(Compute(n=idx.shape[0], op="mov", simd=False))
        seq_write(session, idx, "idx", resident=True)
    else:
        price_selection_vector(session, n, int(idx.shape[0]))
    return idx


def price_selection_vector(session: Session, n: int, k: int) -> None:
    """The predicated selection vector of ``k`` out of ``n`` rows."""
    session.tracer.emit(Compute(n=n, op="select", simd=False))
    price_seq_write(session, k, 8, "idx", resident=True)


def gather(
    session: Session,
    values: np.ndarray,
    idx: np.ndarray,
    array: str,
    n_range: Optional[int] = None,
) -> np.ndarray:
    """Conditional read of ``values`` through a selection vector.

    Emits the ``s_trav_cr`` CondRead (density measured from ``idx``) plus
    the per-element gather overhead. This is the pattern SWOLE eliminates.
    """
    n_range = values.shape[0] if n_range is None else n_range
    price_gather(
        session, int(n_range), int(idx.shape[0]), _width(values), array
    )
    return values[idx]


def price_gather(
    session: Session, n_range: int, k: int, width: int, array: str
) -> None:
    """``k`` of ``n_range`` elements read through a selection vector."""
    price_cond_read(session, n_range, k, width, array)
    session.tracer.emit(Compute(n=k, op="gather", simd=False))


def conditional_read(
    session: Session, values: np.ndarray, mask: np.ndarray, array: str
) -> np.ndarray:
    """Conditional read guarded by a per-tuple ``if`` (data-centric form).

    Costs the same CondRead pattern but without gather overhead (the
    caller prices the branch itself).
    """
    price_cond_read(
        session, values.shape[0], int(mask.sum()), _width(values), array
    )
    return values[mask]


def price_cond_read(
    session: Session, n_range: int, k: int, width: int, array: str
) -> None:
    """A forward traversal of ``n_range`` rows touching ``k``."""
    session.tracer.emit(
        CondRead(n_range=n_range, n_selected=k, width=width, array=array)
    )


# ---------------------------------------------------------------------------
# Loop overheads
# ---------------------------------------------------------------------------


def scalar_loop(session: Session, n: int, label: str = "loop") -> None:
    """Per-tuple loop overhead of scalar (non-tiled) generated code."""
    session.tracer.emit(
        TupleOverhead(
            n=n, cycles_each=session.machine.scalar_loop_cycles, label=label
        )
    )


def interpreter_overhead(session: Session, n: int, operators: int = 1) -> None:
    """Per-tuple Volcano iterator overhead (sanity-check baseline only)."""
    session.tracer.emit(
        TupleOverhead(
            n=n * operators,
            cycles_each=session.machine.interpreter_tuple_cycles,
            label="iterator",
        )
    )


# ---------------------------------------------------------------------------
# Hash table kernels
# ---------------------------------------------------------------------------


def probe_length(alpha: float, hit: float = 1.0) -> float:
    """Expected linear-probe length at load factor ``alpha`` (Knuth):
    ``½(1 + 1/(1-α))`` for a key that is found, ``½(1 + 1/(1-α)²)`` for
    one that is not, mixed by the hit fraction ``hit``."""
    return hit * 0.5 * (1.0 + 1.0 / (1.0 - alpha)) + (1.0 - hit) * 0.5 * (
        1.0 + 1.0 / (1.0 - alpha) ** 2
    )


def ht_op_cycles(
    session: Session, entries: int, capacity: int, hit: float = 1.0
) -> float:
    """Per-access compute: hash plus expected probe arithmetic, priced
    from the table's occupancy ``entries / capacity`` at build
    completion. ``hit`` is the fraction of accesses that find their key
    (1 for inserts and aggregates). A table with no empty slot left is
    full, as the linear-probing table it models would be."""
    if entries >= capacity:
        raise ExecutionError(
            f"hash table is full: {entries} keys in {capacity} slots"
        )
    probes = probe_length(entries / capacity, hit)
    return session.machine.op_cost("hash") + (probes - 1.0) * 2.0


def price_ht_access(
    session: Session,
    kind: str,
    n: int,
    nbytes: int,
    entries: int,
    capacity: int,
    hit: float = 1.0,
    hot: float = 0.0,
) -> None:
    """``n`` accesses to a hash table of ``nbytes`` holding ``entries``
    of ``capacity`` slots; ``hit`` of them find their key, ``hot`` of
    them go to the key-masking throwaway entry."""
    session.tracer.emit(
        RandomAccess(
            n=n,
            struct_bytes=nbytes,
            kind=kind,
            hot_fraction=hot,
            op_cycles=ht_op_cycles(session, entries, capacity, hit),
            prefetched=session.knobs.ht_prefetch,
        )
    )


def mask_keys(
    session: Session,
    keys: np.ndarray,
    mask: np.ndarray,
    array: str,
) -> np.ndarray:
    """Key masking (paper §III-B; first inner loop of Fig. 4, bottom):
    ``key[j] = pred ? c : NULL``.

    For group-by aggregation over a *large* hash table, value masking's
    unconditional lookups get expensive: every tuple pays a random
    access into a structure that misses cache. Masking the group-by
    *key* instead sends tuples failing the predicate to a single
    throwaway ``NULL_KEY`` entry, which stays cache-hot exactly when
    the predicate fails often; no bookkeeping flag is needed, since
    every other entry is guaranteed valid. :func:`ht_aggregate` prices
    ``NULL_KEY`` batches through the cost accountant's hot-entry path,
    whose residency degrades as valid (cache-polluting) lookups become
    more frequent — reproducing the paper's finding that key masking
    only overtakes hybrid beyond ~45 % selectivity at 100 K keys and
    ~85 % at 10 M keys.

    Costs a predicated select per tuple plus a sequential write of the
    masked key array (tile-resident).
    """
    price_mask_keys(session, int(keys.shape[0]), array)
    return np.where(mask, keys, NULL_KEY)


def price_mask_keys(session: Session, n: int, array: str) -> None:
    """The key-masking blend of ``n`` int64 keys and its resident write."""
    session.tracer.emit(Compute(n=n, op="blend", simd=True, width=8))
    price_seq_write(session, n, 8, f"key({array})", resident=True)


def ht_aggregate(
    session: Session,
    table: HashTable,
    keys: np.ndarray,
    deltas: np.ndarray,
    agg: int = 0,
    kind: str = "ht_insert",
) -> None:
    """Group-by insert/update: ``table[key][agg] += delta``.

    Key-masked batches (keys equal to ``NULL_KEY``) are detected and
    costed as hot-entry accesses — the throwaway entry of paper §III-B.
    """
    hot = float((keys == NULL_KEY).mean()) if keys.size else 0.0
    table.aggregate(keys, deltas, agg=agg)
    price_ht_access(
        session, kind, int(keys.shape[0]), table.nbytes,
        table.num_entries, table.capacity, hot=hot,
    )


def ht_insert_keys(
    session: Session, table: HashTable, keys: np.ndarray
) -> None:
    """Set-semantics build (semijoin / join build side)."""
    table.insert_keys(keys)
    price_ht_access(
        session, "ht_insert", int(keys.shape[0]), table.nbytes,
        table.num_entries, table.capacity,
    )


def ht_lookup(
    session: Session, table: HashTable, keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Probe: returns (slots, found). Hot-entry handling as in aggregate."""
    hot = float((keys == NULL_KEY).mean()) if keys.size else 0.0
    slots, found = table.lookup(keys)
    k = int(keys.shape[0])
    price_ht_access(
        session, "ht_lookup", k, table.nbytes, table.num_entries,
        table.capacity, hit=int(found.sum()) / k if k else 1.0, hot=hot,
    )
    return slots, found


def ht_add_at(
    session: Session,
    table: HashTable,
    slots: np.ndarray,
    agg: int,
    deltas: np.ndarray,
) -> None:
    """Scatter-add into already-resolved slots (cost: the adds only —
    the random access was already paid by the lookup that produced
    ``slots``)."""
    table.add_at(slots, agg, deltas)
    session.tracer.emit(
        Compute(n=int(slots.shape[0]), op="add", simd=False, width=8)
    )
