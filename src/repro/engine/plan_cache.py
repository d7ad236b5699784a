"""Keyed LRU cache of compiled query programs.

Serving the same analytical queries repeatedly should not re-run
planning and code generation per request (compare Wehrstein et al.,
"Bespoke OLAP": cache workload-specialised compiled artifacts). The
cache key captures everything compilation depends on: the operator
tree's fingerprint, the strategy, the machine model (the SWOLE planner
reasons about cache ratios), and the tile size.

Compiled programs close over the database's column arrays, so a cache
is only valid for one :class:`~repro.storage.database.Database`; the
:class:`repro.Engine` facade owns one cache per database and clears it
on :meth:`Engine.invalidate`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Hashable, Optional, Tuple

from ..errors import ReproError
from ..plan.logical import Query
from ..plan.ops import LogicalPlan, from_query, plan_fingerprint
from .machine import MachineModel
from .program import CompiledQuery


#: ``id(query) -> (query, plan, fingerprint)`` memo. The strong
#: reference to the query pins its id so a recycled address can never
#: alias a dead object; the identity check on lookup makes staleness
#: impossible even if one does. Bounded: a serving workload cycles a
#: small set of long-lived query objects, so the occasional full reset
#: is free.
_NORMALIZED_MEMO: Dict[int, Tuple[object, LogicalPlan, str]] = {}
_NORMALIZED_MEMO_CAP = 1024


def normalize_query(query) -> Tuple[LogicalPlan, str]:
    """The engine's front door: ``(operator tree, "ir:" fingerprint)``.

    A :class:`~repro.plan.ops.LogicalPlan` passes through; a legacy
    microbench :class:`~repro.plan.logical.Query` is lifted with
    :func:`~repro.plan.ops.from_query` — here and nowhere else, so the
    two spellings of one query share a plan-cache entry *and* a
    compiler. Anything else is rejected with a typed error.

    Memoized per query *object*: the fingerprint is needed on every
    ``Engine.execute`` for the plan key, and walking the operator tree
    is a measurable per-request cost for sub-millisecond queries. Query
    objects are immutable (frozen dataclasses), so identity implies an
    unchanged plan and fingerprint.
    """
    hit = _NORMALIZED_MEMO.get(id(query))
    if hit is not None and hit[0] is query:
        return hit[1], hit[2]
    if isinstance(query, LogicalPlan):
        plan = query
    elif isinstance(query, Query):
        plan = from_query(query)
    elif isinstance(query, str):
        raise ReproError(
            f"query name strings are no longer accepted (got {query!r}); "
            f'pass the operator tree — repro.tpch.logical_plan("{query}") '
            "for the TPC-H queries, or build one with repro.PlanBuilder"
        )
    else:
        raise ReproError(
            f"cannot compile a {type(query).__name__}; pass a "
            "LogicalPlan operator tree or a microbench Query"
        )
    fingerprint = plan_fingerprint(plan)
    if len(_NORMALIZED_MEMO) >= _NORMALIZED_MEMO_CAP:
        _NORMALIZED_MEMO.clear()
    _NORMALIZED_MEMO[id(query)] = (query, plan, fingerprint)
    if plan is not query:
        _NORMALIZED_MEMO[id(plan)] = (plan, plan, fingerprint)
    return plan, fingerprint


def query_fingerprint(query) -> str:
    """Stable ``ir:`` structural fingerprint of whatever the engine can
    compile (see :func:`normalize_query`)."""
    return normalize_query(query)[1]


@lru_cache(maxsize=64)
def machine_fingerprint(machine: MachineModel) -> str:
    """Stable fingerprint of a machine model (frozen dataclass repr).

    Memoized: the fingerprint is recomputed on every ``Engine.execute``
    for the plan key, and hashing the model's repr is a measurable
    per-query cost for sub-millisecond queries.
    """
    digest = hashlib.sha256(repr(machine).encode()).hexdigest()[:16]
    return f"machine:{digest}"


def plan_key(
    query,
    strategy: str,
    machine: MachineModel,
    tile: int,
    backend: str = "instrumented",
    shards: int = 0,
    encoding: str = "auto",
) -> Tuple[str, str, str, int, str, int, str]:
    """The full cache key of one compilation.

    The backend is part of the key: a kernel generated for the
    vectorized backend must never be served to a request that asked
    for the instrumented (costed) one, or vice versa. So is the
    access-encoding decision (the caller resolves ``"auto"`` to
    ``"auto:<database encoding fingerprint>"``): a program compiled
    over code streams closes over different physical arrays than one
    compiled over decoded values. The shard count (``0`` =
    in-process) no longer separates different programs — parent,
    workers and the in-process path all compile the same operator tree
    through the one compiler — so the component is next to go, with
    the positional tuple itself, when a ``CompileSpec`` replaces it.
    """
    return (
        query_fingerprint(query),
        strategy,
        machine_fingerprint(machine),
        tile,
        backend,
        shards,
        encoding,
    )


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction counters of one plan cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class _InFlightCompile:
    """One key's compilation in progress: waiters block on the event,
    then read either the compiled value (also in the cache by then) or
    the leader's error."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Optional[CompiledQuery] = None
        self.error: Optional[BaseException] = None


@dataclass
class PlanCache:
    """LRU cache mapping plan keys to :class:`CompiledQuery` programs.

    Thread-safe: the query service executes requests on several threads
    against one engine. Lookups and inserts are serialised by an
    internal lock; the compile-on-miss path runs *outside* it under a
    per-key in-flight guard (singleflight), so a slow compilation of
    one plan never blocks hits — or misses — on any other key, while a
    plan still compiles at most once per key under concurrent first
    requests.
    """

    capacity: int = 64
    stats: PlanCacheStats = field(default_factory=PlanCacheStats)
    _entries: "OrderedDict[Hashable, CompiledQuery]" = field(
        default_factory=OrderedDict
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    _in_flight: "Dict[Hashable, _InFlightCompile]" = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ReproError("plan cache capacity must be at least 1")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[CompiledQuery]:
        """Look up a compiled program, counting the hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: Hashable, compiled: CompiledQuery) -> None:
        """Insert (or refresh) an entry, evicting the LRU past capacity."""
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_compile(
        self, key: Hashable, compile_fn: Callable[[], CompiledQuery]
    ) -> Tuple[CompiledQuery, bool]:
        """Return ``(program, was_hit)``, compiling on miss.

        The miss path compiles **outside** the cache lock: the first
        thread to miss on a key becomes its *leader* and registers an
        in-flight guard, later arrivals for the **same** key wait on
        that guard and are then answered as hits from the leader's
        insert, and requests for **other** keys proceed entirely
        unblocked. (The previous implementation compiled while holding
        the global lock, so one cache miss stalled every strategy's hot
        path.) If the leader's compilation raises, waiters re-raise the
        same error; the guard is removed either way, so a later request
        simply retries the compile.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return entry, True
                flight = self._in_flight.get(key)
                if flight is None:
                    flight = _InFlightCompile()
                    self._in_flight[key] = flight
                    self.stats.misses += 1
                    break  # this thread leads the compilation
            # Another thread is compiling this key: wait outside the
            # lock, then re-check (the leader inserts into the cache
            # before resolving the guard, so the retry normally hits).
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
        try:
            compiled = compile_fn()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._in_flight.pop(key, None)
            flight.event.set()
            raise
        self.put(key, compiled)
        with self._lock:
            self._in_flight.pop(key, None)
        flight.value = compiled
        flight.event.set()
        return compiled, False

    def invalidate(self, fingerprint: Optional[str] = None) -> int:
        """Drop cached plans; returns how many entries were dropped.

        Without an argument, every entry goes (data changed / database
        swapped) and the invalidation counter ticks once, as before.
        With a query ``fingerprint`` (``plan_key(...)[0]``), only that
        query's compilations are dropped — every strategy / machine /
        tile / backend cell — and the counter ticks once per dropped
        entry. The adaptive re-optimizer uses the targeted form so a
        drifted plan recompiles without cooling every other query.
        """
        if fingerprint is not None:
            return self.invalidate_where(
                lambda key: isinstance(key, tuple)
                and bool(key)
                and key[0] == fingerprint
            )
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += 1
            return dropped

    def invalidate_where(self, pred: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``pred``; returns the
        count. The invalidation counter ticks once per dropped entry.
        ``pred`` runs under the cache lock — keep it cheap and never
        have it touch the cache."""
        with self._lock:
            doomed = [key for key in self._entries if pred(key)]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def keys(self):
        """Current keys, LRU first (tests / introspection)."""
        with self._lock:
            return list(self._entries)
