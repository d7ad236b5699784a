"""Runtime library for the vectorized NumPy execution backend.

The generated kernels (:mod:`repro.codegen.vectorize`) are ``exec``'d
with this module's helpers bound into their globals. Everything here is
plain NumPy over the columns of one row block — no event emission, no
simulated-cost accounting (the instrumented backend runs these same
kernels and prices their counts afterwards, :mod:`repro.codegen.price`)
— and every helper keeps the answers byte-identical to the reference
evaluators:

- grouped results are ``{"keys": int64 ascending, "aggs": int64 2-D}``;
- arithmetic happens at int64 width with ndarray-only casts and the
  same floor-division / zero-check behaviour as ``Arith.evaluate``;
- scalar aggregates come back as Python ints.

Hash builds become key sets (:func:`key_set`: a presence table over
the key range for dense keys, a sorted unique array for sparse ones)
and hash probes and IN-lists become :func:`member` tests against
them, and grouping becomes counting or argsort + ``np.add.reduceat``
instead of scatter adds into a hash table — int64-exact in both cases.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..engine.program import merge_partials
from ..errors import PlanError
from . import native
from .common import dense_spread_limit, slice_columns

__all__ = [
    "BLOCK_BYTES",
    "KEY_SET_MIN_SPREAD",
    "KEY_SET_SPREAD_PER_KEY",
    "KeySet",
    "MEMBER_ROW_BYTES",
    "VectorizedProgram",
    "group_sorted",
    "key_set",
    "key_set_limit",
    "member",
    "count_by",
    "distribution",
    "i64",
    "int_div",
    "rows_of",
    "RUNTIME_ENV",
]


def rows_of(view: Dict[str, np.ndarray]) -> int:
    """Row count of a column dict (any column — they are aligned)."""
    return int(next(iter(view.values())).shape[0])


def i64(value):
    """``Arith``'s operand widening: ndarrays go to int64, scalars stay.

    ``np.int64`` scalars (what ``Const.evaluate`` returns) are *not*
    ndarrays and pass through untouched, matching the instrumented
    expression evaluator exactly.
    """
    if isinstance(value, np.ndarray):
        return value.astype(np.int64, copy=False)
    return value


def int_div(lhs, rhs):
    """``Arith(op="div")``: zero-checked int64 floor division."""
    if isinstance(lhs, np.ndarray):
        lhs = lhs.astype(np.int64, copy=False)
    if isinstance(rhs, np.ndarray):
        rhs = rhs.astype(np.int64, copy=False)
    rhs_array = np.asarray(rhs)
    if rhs_array.size and (rhs_array == 0).any():
        raise PlanError("division by zero in expression")
    return np.floor_divide(lhs, rhs)


#: A key set carries a presence table when its key spread (max - min)
#: is at most :data:`KEY_SET_SPREAD_PER_KEY` values per build key, with
#: a floor of :data:`KEY_SET_MIN_SPREAD` for small builds. The bound is
#: per build key because the table costs one byte per value in the
#: range: 64 bytes a key is eight times the int64 key array the set is
#: made from, so a dense set never costs more than a constant factor of
#: its input. Wider (sparse) sets keep the sorted array.
KEY_SET_SPREAD_PER_KEY = 64
KEY_SET_MIN_SPREAD = 1 << 16


def key_set_limit(rows: int) -> int:
    """Widest key spread a key set of ``rows`` build keys gives a
    presence table."""
    return max(KEY_SET_MIN_SPREAD, KEY_SET_SPREAD_PER_KEY * rows)


class KeySet(NamedTuple):
    """A hash build's keys, in the form :func:`member` probes.

    ``keys`` is the sorted unique int64 keys (what ``np.unique``
    returns, so ``keys.shape[0]`` is the build's distinct count).
    ``present`` is the presence table of a dense set: ``present[k - lo]``
    for ``k`` in ``[lo, max]``, plus one trailing ``False`` that an
    out-of-range probe is clipped to; ``None`` for a sparse set, which
    is probed by binary search over ``keys``.
    """

    keys: np.ndarray
    present: Optional[np.ndarray]
    lo: int


def key_set(keys: np.ndarray) -> KeySet:
    """The :class:`KeySet` of integer ``keys`` (any width, duplicates
    allowed): a presence table without a sort when the spread is within
    :func:`key_set_limit`, else ``np.unique``."""
    keys = np.asarray(keys)
    if keys.size == 0:
        return KeySet(np.empty(0, dtype=np.int64), np.zeros(1, dtype=bool), 0)
    lo = int(keys.min())
    spread = int(keys.max()) - lo
    if spread > key_set_limit(keys.size):
        return KeySet(np.unique(keys).astype(np.int64, copy=False), None, lo)
    present = np.zeros(spread + 2, dtype=bool)
    present[np.subtract(keys, np.int64(lo), dtype=np.int64)] = True
    return KeySet(np.flatnonzero(present) + np.int64(lo), present, lo)


#: Bytes per probe value of the temporaries :func:`member` allocates at
#: most: a sparse set's int64 widening, search positions and gathered
#: keys plus the hit mask (a dense set's offsets and hit mask are 9).
MEMBER_ROW_BYTES = 8 + 8 + 8 + 1


def member(values: np.ndarray, keys: KeySet) -> np.ndarray:
    """Membership of integer ``values`` in a :class:`KeySet`.

    The vectorized hash-set probe. A dense set is a range check plus a
    table read: ``values - lo``, read as uint64, puts every value below
    ``lo`` above the table too (the table's range lies inside int64's,
    so no wrap lands in it), and clipping to the trailing ``False``
    makes the check branch-free. The clipped offsets are read back as
    int64, NumPy's index type, so the table read converts nothing. A
    sparse set is a binary search plus one equality check per value.
    Values that are not exact in int64 (floats, uint64) take
    ``np.isin``.
    """
    values = np.asarray(values)
    if not np.can_cast(values.dtype, np.int64):
        return np.isin(values, keys.keys)
    present = keys.present
    if present is None:
        table = keys.keys
        values = values.astype(np.int64, copy=False)
        pos = np.searchsorted(table, values)
        np.minimum(pos, table.size - 1, out=pos)
        return table[pos] == values
    off = np.empty(values.shape, dtype=np.int64)
    np.subtract(values, np.int64(keys.lo), out=off)
    wrapped = off.view(np.uint64)
    np.minimum(wrapped, np.uint64(present.size - 1), out=wrapped)
    return present[off]


#: Rows per hi/lo-split bincount pass: every 32-bit partial sum stays
#: exactly representable in float64 (``n * 2**32 <= 2**53``).
_BINCOUNT_MAX_ROWS = 1 << 21

_LO_MASK = np.int64(0xFFFFFFFF)
_HI_SCALE = np.int64(1 << 32)


def _dense_codes(keys: np.ndarray):
    """``(codes, base_keys)`` when the key range is narrow enough for
    counting-sort grouping, else ``None`` (caller falls back to sort).

    The spread bound (:func:`~repro.codegen.common.dense_spread_limit`)
    keeps the ``np.bincount`` tables O(n); sparse keys take the argsort
    path.
    """
    if keys.size == 0:
        return None
    kmin = int(keys.min())
    spread = int(keys.max()) - kmin
    if spread > dense_spread_limit(keys.size):
        return None
    codes = (keys - np.int64(kmin)).astype(np.intp, copy=False)
    base = np.arange(spread + 1, dtype=np.int64) + np.int64(kmin)
    return codes, base


def _bincount_i64(codes: np.ndarray, delta: np.ndarray, length: int):
    """Exact int64 per-code sums out of float64 ``np.bincount``.

    ``np.bincount`` only sums float64 weights. While ``rows *
    max|delta| < 2**53`` no partial sum can leave float64's exact
    integer range, so one pass over the deltas themselves is exact —
    the common case, since a row block bounds ``rows``. Otherwise the
    deltas are split into a signed high half and an unsigned low half,
    ``_BINCOUNT_MAX_ROWS`` rows at a time so both halves' partial sums
    stay exact, and the recombination wraps mod 2**64 exactly like the
    int64 adds of the sort path.
    """
    bound = max(-int(delta.min()), int(delta.max())) if delta.size else 0
    if delta.size * bound < 2**53:
        return np.bincount(codes, weights=delta, minlength=length).astype(
            np.int64
        )
    total = np.zeros(length, dtype=np.int64)
    for at in range(0, delta.size, _BINCOUNT_MAX_ROWS):
        part = delta[at : at + _BINCOUNT_MAX_ROWS]
        part_codes = codes[at : at + _BINCOUNT_MAX_ROWS]
        hs = np.bincount(part_codes, weights=part >> 32, minlength=length)
        ls = np.bincount(
            part_codes, weights=part & _LO_MASK, minlength=length
        )
        total += hs.astype(np.int64) * _HI_SCALE + ls.astype(np.int64)
    return total


def group_sorted(
    keys: np.ndarray,
    deltas: List[np.ndarray],
    mask: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Group int64 ``deltas`` columns by int64 ``keys``; keys ascending.

    Dense key ranges group by counting (``np.bincount`` over shifted
    codes, int64-exact via the hi/lo split); sparse ranges fall back to
    a stable argsort plus one ``np.add.reduceat`` per run boundary.
    Both are bit-identical to the hash-table scatter-add path.

    ``mask`` selects the rows to group (the generated kernels pass the
    selection vector straight through): the dense path diverts the
    unselected rows into a sentinel bucket that never reaches the
    output, which beats materialising ``keys[mask]`` plus one boolean
    subset copy per delta column.
    """
    naggs = max(len(deltas), 1)
    if keys.size == 0:
        return {
            "keys": np.empty(0, dtype=np.int64),
            "aggs": np.zeros((0, naggs), dtype=np.int64),
        }
    dense = _dense_codes(keys)
    if dense is not None:
        codes, base = dense
        length = base.size
        if mask is not None:
            # Unselected rows land in bucket ``base.size`` — counted,
            # summed, and then sliced away with everything past it.
            codes = np.where(mask, codes, length)
            length += 1
        occupancy = np.bincount(codes, minlength=length)[: base.size]
        present = np.flatnonzero(occupancy)
        if deltas:
            cols = [
                _bincount_i64(
                    codes, np.asarray(d, dtype=np.int64), length
                )[: base.size][present]
                for d in deltas
            ]
            aggs = np.stack(cols, axis=1)
        else:
            aggs = np.zeros((present.size, 1), dtype=np.int64)
        return {"keys": base[present], "aggs": aggs}
    if mask is not None:
        keys = keys[mask]
        deltas = [np.asarray(d)[mask] for d in deltas]
        if keys.size == 0:
            return {
                "keys": np.empty(0, dtype=np.int64),
                "aggs": np.zeros((0, naggs), dtype=np.int64),
            }
    stacked = np.stack(
        [np.asarray(d, dtype=np.int64) for d in deltas], axis=1
    ) if deltas else np.zeros((keys.shape[0], 1), dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    aggs = np.add.reduceat(stacked[order], starts, axis=0)
    return {"keys": sorted_keys[starts], "aggs": aggs}


def count_by(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-key row counts, keys ascending (outer groupjoin's state)."""
    dense = _dense_codes(keys)
    if dense is not None:
        codes, base = dense
        occupancy = np.bincount(codes, minlength=base.size)
        present = np.flatnonzero(occupancy)
        return base[present], occupancy[present].astype(np.int64)
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq.astype(np.int64, copy=False), counts.astype(np.int64)


def distribution(per_key: np.ndarray, missing: int) -> Dict[str, np.ndarray]:
    """Count-of-counts over per-key counts, folding ``missing`` build
    keys (rows the outer join never matched) into the zero bucket."""
    values, counts = np.unique(per_key, return_counts=True)
    values = values.astype(np.int64, copy=False)
    counts = counts.astype(np.int64)
    if missing:
        if values.size and values[0] == 0:
            counts[0] += missing
        else:
            values = np.concatenate(
                (np.zeros(1, dtype=np.int64), values)
            )
            counts = np.concatenate(
                (np.asarray([missing], dtype=np.int64), counts)
            )
    return {"keys": values, "aggs": counts.reshape(-1, 1)}


#: Globals every generated kernel is ``exec``'d with (the expression
#: compiler adds per-kernel ``_E*`` / ``_C*`` / ``_FK*`` bindings on
#: top of a copy of this).
RUNTIME_ENV: Dict[str, Any] = {
    "np": np,
    "_rows": rows_of,
    "_key_set": key_set,
    "_member": member,
    "_group": group_sorted,
    "_count_by": count_by,
    "_distribution": distribution,
    "_i64": i64,
    "_div": int_div,
}


#: Working-set budget of one row block. The kernel emitter knows the
#: bytes per row of the temporaries it allocates, so a splittable scan
#: runs ``BLOCK_BYTES // row_bytes`` rows at a time: the temporaries of
#: a block stay cache resident and below the allocator's mmap threshold
#: instead of being mapped, faulted in and unmapped once per column
#: (EXPERIMENTS.md, "Block sweep", is the measurement behind the value).
BLOCK_BYTES = 4 << 20


class VectorizedProgram:
    """A compiled physical plan as a list of executable column kernels.

    ``kernels`` pairs each pipeline with its generated function
    ``fn(view, state, lo) -> result | None``; ``data`` caches the base
    columns each kernel reads, so the serving path does no per-query
    dict rebuilding. ``source`` is the full generated Python text (the
    vectorized analogue of the instrumented backend's pseudo-C).

    ``row_bytes`` is what the final kernel allocates per input row when
    that pipeline is splittable into row ranges, ``None`` when it is
    not; it fixes ``block_rows``, the rows the final kernel is called
    with at a time (``None``: the whole view is one block).

    The final pipeline has two tiers (:mod:`repro.codegen.native`).
    ``tier`` starts at ``"numpy"``; :meth:`run_final` times its NumPy
    kernel calls, and once they add up to what a build is estimated to
    cost the program goes to the builder thread (``"building"``), which
    ends in ``"native"`` with ``native`` set — from then on the final
    pipeline is one C call over the whole row range — or in
    ``"declined: <reason>"`` / ``"failed: <reason>"``, which are final:
    the program stays on NumPy. A program built with ``tier="counting"``
    (the instrumented backend's, whose kernels count what they do) is
    never handed to the builder. ``fk_offsets`` (FK column -> the offsets
    its gathers index through), ``cache_dir``, ``registry``, ``label``
    and ``notes`` (where the live C text is published as
    ``notes["native_source"]``) are what a build needs to know.
    """

    def __init__(
        self,
        kernels: List[Tuple[Any, Callable]],
        data: List[Dict[str, np.ndarray]],
        source: str,
        finalize: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        row_bytes: Optional[int] = None,
        fk_offsets: Optional[Dict[str, np.ndarray]] = None,
        cache_dir: Optional[str] = None,
        registry: Any = None,
        label: str = "query",
        tier: str = "numpy",
    ) -> None:
        if not kernels:
            raise PlanError("vectorized program needs at least one pipeline")
        self.kernels = kernels
        self.data = data
        self.source = source
        self.final_pipe = kernels[-1][0]
        self.fk_offsets = fk_offsets if fk_offsets is not None else {}
        self.cache_dir = cache_dir
        self.registry = registry
        self.label = label
        self.notes: Dict[str, Any] = {}
        self.tier = tier
        self.native: Optional[native.NativeKernel] = None
        self._numpy_seconds = 0.0
        self._tier_lock = threading.Lock()
        if tier == "numpy":
            builder = native.builder()
            builder.track(self)
            if registry is not None:
                # The ``stats`` op: every live program's tier.
                registry.register_source("native", builder.snapshot)
        #: Post-merge cleanup applied once to the final (serial) or
        #: merged (parallel) result — eager aggregation's victim-key
        #: deletion lives here so block and morsel partials stay
        #: mergeable.
        self.finalize = finalize
        self.block_rows: Optional[int] = (
            None
            if row_bytes is None
            else max(BLOCK_BYTES // max(row_bytes, 1), 1)
        )

    def execute(
        self, state: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Run every pipeline in order; the last one yields the answer.
        ``state`` (default: a fresh dict) receives the build states and
        a counting program's counts."""
        result = self.run_final(self.data[-1], self.run_setup(state), 0)
        if result is None:
            raise PlanError("physical plan produced no result")
        if self.finalize is not None:
            result = self.finalize(result)
        return result

    def run_setup(
        self, state: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Run the build pipelines (all but the last) into ``state``
        (default: a fresh dict)."""
        state = {} if state is None else state
        for (pipe, fn), view in zip(self.kernels[:-1], self.data[:-1]):
            fn(view, state, 0)
        return state

    def run_final(
        self,
        view: Dict[str, np.ndarray],
        state: Optional[Dict[str, Dict[str, Any]]],
        lo: int,
    ) -> Dict[str, Any]:
        """Run the final pipeline over ``view`` — the whole scan, or one
        morsel's or shard's row range of it starting at row ``lo`` — as
        one native call when the program has a native kernel, else
        block by block through the NumPy kernel, merging the per-block
        partials."""
        _, fn = self.kernels[-1]
        if state is None:
            state = {}
        kernel = self.native
        if kernel is not None:
            result = kernel(view, state, lo)
            if result is not None:
                return result
        started = perf_counter()
        # An empty view is still one (empty) block: the kernel shapes
        # the zero answer.
        rows = max(rows_of(view), 1)
        step = self.block_rows or rows
        result = merge_partials(
            [
                fn(slice_columns(view, at, at + step), state, lo + at)
                for at in range(0, rows, step)
            ]
        )
        if self.tier == "numpy":
            self._earn(perf_counter() - started, state)
        return result

    def _earn(self, seconds: float, state: Dict[str, Dict[str, Any]]) -> None:
        """Ski-rental: hand the program to the builder once its NumPy
        kernel has cost as much as a build is estimated to."""
        builder = native.builder()
        with self._tier_lock:
            self._numpy_seconds += seconds
            if (
                self.tier != "numpy"
                or self._numpy_seconds < builder.estimate
            ):
                return
            self.tier = "building"
        if not builder.submit(self, state):
            self.tier = "numpy"

    def publish(
        self, tier: str, kernel: Optional[native.NativeKernel]
    ) -> None:
        """The builder's verdict: the final tier and, for ``"native"``,
        the kernel :meth:`run_final` switches to."""
        if kernel is not None:
            self.notes["native_source"] = kernel.source.text
        self.native = kernel
        self.tier = tier

    def build_now(self) -> str:
        """Build the native kernel synchronously, whatever the program
        has earned, and return the resulting tier (for tests: which
        kernel runs next is then not a race)."""
        return native.builder().build(self, self.run_setup())
