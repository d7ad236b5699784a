"""Vectorised open-addressing hash table for int64 keys.

All strategies in the paper share "the same library code (e.g., hash table
implementations)" so that comparisons isolate the code-generation
strategy. This module is that shared library: a linear-probing
open-addressing table with int64 keys and a fixed number of int64
aggregate columns (sums / counts — every evaluated query needs only
those; averages divide sums by counts at result time).

The table is a *pure* data structure: it performs the real work, while
the kernels that call it are responsible for emitting the corresponding
:class:`~repro.engine.events.RandomAccess` events (using :attr:`nbytes`
as the structure footprint and the occupancy ``num_entries /
capacity`` for the expected probe length).

Batch operations are vectorised: collisions are resolved by iterating
probe distances over the *unresolved subset* with NumPy masks, so the
per-call Python overhead is O(max probe distance), not O(n).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ExecutionError

#: Sentinel for an empty slot. Keys may be any int64 except the sentinels.
EMPTY = np.int64(-(2**62) - 11)
#: The masked "throwaway" key used by key masking (paper §III-B). It is a
#: perfectly ordinary key from the table's point of view.
NULL_KEY = np.int64(-(2**62) - 13)


def _mix64(keys: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser — a strong, cheap int64 hash."""
    h = keys.astype(np.uint64)
    with np.errstate(over="ignore"):
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        h = h ^ (h >> np.uint64(31))
    return h


def _next_pow2(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


def table_geometry(expected_keys: int, num_aggs: int) -> Tuple[int, int]:
    """``(capacity, nbytes)`` of a table sized for ``expected_keys``:
    a power of two at least twice the keys (eight slots at least), and
    the footprint random accesses are priced against."""
    capacity = max(8, _next_pow2(2 * max(expected_keys, 1)))
    return capacity, capacity * (8 + 8 * max(num_aggs, 1))


class HashTable:
    """Linear-probing table: int64 key -> ``num_aggs`` int64 aggregates."""

    #: Bytes per slot charged to the structure footprint: the key plus the
    #: aggregate columns (what the generated C's table would occupy).
    def __init__(self, expected_keys: int, num_aggs: int = 1) -> None:
        if expected_keys < 0:
            raise ExecutionError("expected_keys must be non-negative")
        if num_aggs < 0:
            raise ExecutionError("num_aggs must be non-negative")
        self._capacity, _ = table_geometry(expected_keys, num_aggs)
        self._mask = np.int64(self._capacity - 1)
        self._keys = np.full(self._capacity, EMPTY, dtype=np.int64)
        self._aggs = np.zeros((self._capacity, max(num_aggs, 1)), dtype=np.int64)
        self._num_aggs = num_aggs
        self._num_entries = 0

    # -- geometry --------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def num_aggs(self) -> int:
        return self._num_aggs

    @property
    def slot_bytes(self) -> int:
        return 8 + 8 * max(self._num_aggs, 1)

    @property
    def nbytes(self) -> int:
        """Structure footprint used for random-access costing."""
        return self._capacity * self.slot_bytes

    # -- internals -------------------------------------------------------

    def _home_slots(self, keys: np.ndarray) -> np.ndarray:
        return (_mix64(keys) & np.uint64(self._mask)).astype(np.int64)

    def _check_keys(self, keys: np.ndarray) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size and (keys == EMPTY).any():
            raise ExecutionError("key collides with a sentinel value")
        return keys

    def _locate(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Find the slot of each key (an absent key resolves at the
        empty slot where it would be inserted). Returns (slots,
        found_mask)."""
        n = keys.shape[0]
        slots = self._home_slots(keys)
        found = np.zeros(n, dtype=bool)
        pending = np.arange(n, dtype=np.int64)
        distance = 0
        while pending.size:
            distance += 1
            if distance > self._capacity + 1:
                raise ExecutionError("hash table probe loop did not converge")
            slot = slots[pending]
            stored = self._keys[slot]
            match = stored == keys[pending]
            empty = stored == EMPTY
            found[pending[match]] = True
            done = match | empty
            slots[pending[~done]] = (slot[~done] + 1) & self._mask
            pending = pending[~done]
        return slots, found

    def _claim_empty(self, keys: np.ndarray) -> np.ndarray:
        """Insert *unique* new keys, resolving slot races; return slots."""
        n = keys.shape[0]
        slots = self._home_slots(keys)
        result = np.empty(n, dtype=np.int64)
        pending = np.arange(n, dtype=np.int64)
        distance = 0
        while pending.size:
            distance += 1
            if distance > self._capacity + 1:
                raise ExecutionError("hash table is full")
            slot = slots[pending]
            stored = self._keys[slot]
            match = stored == keys[pending]
            result[pending[match]] = slot[match]
            empty = stored == EMPTY
            claimed = np.zeros(pending.size, dtype=bool)
            if empty.any():
                # Among pending keys wanting the same empty slot, only the
                # first (in batch order) may claim it this round.
                empty_idx = np.flatnonzero(empty)
                unique_slots, first = np.unique(
                    slot[empty_idx], return_index=True
                )
                winners = empty_idx[first]
                self._keys[slot[winners]] = keys[pending[winners]]
                self._num_entries += winners.size
                result[pending[winners]] = slot[winners]
                claimed[winners] = True
            done = match | claimed
            slots[pending[~done]] = (slot[~done] + 1) & self._mask
            pending = pending[~done]
        return result

    # -- public batch API --------------------------------------------------

    def upsert_slots(self, keys: np.ndarray) -> np.ndarray:
        """Return the slot for each key, inserting keys not yet present.

        Duplicate keys in the batch are handled correctly (they all map to
        the same slot).
        """
        keys = self._check_keys(keys)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        unique_slots = self._claim_empty(unique_keys)
        return unique_slots[inverse]

    def lookup(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(slots, found)`` for each key without inserting."""
        keys = self._check_keys(keys)
        if keys.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=bool)
        return self._locate(keys)

    def add_at(self, slots: np.ndarray, agg: int, deltas: np.ndarray) -> None:
        """Scatter-add ``deltas`` into aggregate column ``agg`` at slots."""
        if not 0 <= agg < max(self._num_aggs, 1):
            raise ExecutionError(f"aggregate column {agg} out of range")
        np.add.at(
            self._aggs[:, agg], slots, np.asarray(deltas, dtype=np.int64)
        )

    def aggregate(
        self, keys: np.ndarray, deltas: np.ndarray, agg: int = 0
    ) -> None:
        """Group-by update: ``table[key][agg] += delta`` for each pair."""
        slots = self.upsert_slots(keys)
        self.add_at(slots, agg, deltas)

    def insert_keys(self, keys: np.ndarray) -> None:
        """Set-semantics insert (semijoin build side)."""
        self.upsert_slots(keys)

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (keys, aggs) for all live entries, sorted by key."""
        live = self._keys != EMPTY
        keys = self._keys[live]
        aggs = self._aggs[live]
        order = np.argsort(keys, kind="stable")
        return keys[order], aggs[order]

    def get(self, key: int, agg: int = 0) -> Optional[int]:
        """Point lookup of one aggregate value (tests / debugging)."""
        slots, found = self.lookup(np.asarray([key], dtype=np.int64))
        if not found[0]:
            return None
        return int(self._aggs[slots[0], agg])
