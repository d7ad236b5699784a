"""Keyed LRU cache of compiled query programs.

Serving the same analytical queries repeatedly should not re-run
planning and code generation per request (compare Wehrstein et al.,
"Bespoke OLAP": cache workload-specialised compiled artifacts). The
cache key is the :class:`CompileSpec` — everything a compilation
depends on besides the plan and the database, as one frozen value the
engine mints once per request and every later layer carries.

Compiled programs close over the database's column arrays, so a cache
is only valid for one :class:`~repro.storage.database.Database`; the
:class:`repro.Engine` facade owns one cache per database and clears it
on :meth:`Engine.invalidate`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Hashable, NamedTuple, Optional, Tuple

from ..errors import PlanError, ReproError
from ..plan.ops import LogicalPlan, plan_fingerprint
from .costing import StatsOverride
from .machine import PAPER_MACHINE, MachineModel
from .program import CompiledQuery


#: ``id(plan) -> (plan, fingerprint)`` memo. The strong reference to
#: the plan pins its id so a recycled address can never alias a dead
#: object; the identity check on lookup makes staleness impossible even
#: if one does. Bounded: a serving workload cycles a small set of
#: long-lived plans, so the occasional full reset is free.
_NORMALIZED_MEMO: Dict[int, Tuple[LogicalPlan, str]] = {}
_NORMALIZED_MEMO_CAP = 1024


def normalize_query(query) -> Tuple[LogicalPlan, str]:
    """The engine's front door: ``(operator tree, "ir:" fingerprint)``.

    A :class:`~repro.plan.ops.LogicalPlan` is the one query type;
    anything else is a typed :class:`~repro.errors.ReproError`. The
    tree is fingerprinted here — the only place past which nothing
    hashes a plan again.

    Memoized per plan *object*: the fingerprint is needed on every
    ``Engine.execute`` for the compile spec, and walking the operator
    tree is a measurable per-request cost for sub-millisecond queries.
    Plans are immutable (frozen dataclasses), so identity implies an
    unchanged fingerprint.
    """
    hit = _NORMALIZED_MEMO.get(id(query))
    if hit is not None and hit[0] is query:
        return hit
    if not isinstance(query, LogicalPlan):
        if isinstance(query, str):
            raise ReproError(
                f"query name strings are no longer accepted (got {query!r}); "
                f'pass the operator tree — repro.tpch.logical_plan("{query}") '
                "for the TPC-H queries, or build one with repro.PlanBuilder"
            )
        raise ReproError(
            f"cannot compile a {type(query).__name__}; pass a "
            "LogicalPlan operator tree"
        )
    if len(_NORMALIZED_MEMO) >= _NORMALIZED_MEMO_CAP:
        _NORMALIZED_MEMO.clear()
    hit = _NORMALIZED_MEMO[id(query)] = (query, plan_fingerprint(query))
    return hit


def query_fingerprint(query) -> str:
    """Stable ``ir:`` structural fingerprint of whatever the engine can
    compile (see :func:`normalize_query`)."""
    return normalize_query(query)[1]


class CompileSpec(NamedTuple):
    """What one compilation depends on besides the plan and the database.

    The plan-cache key, :func:`~repro.codegen.pipeline.compile_pipeline`'s
    configuration, the compile half of a shard task and the shard
    worker's program-cache key are all this one value
    (``compiled.notes["spec"]``). A tuple, not a dataclass: it is
    hashed on every request.

    fingerprint:
        The operator tree's ``ir:`` fingerprint (:func:`normalize_query`).
    strategy:
        The resolved strategy — never ``"auto"``.
    backend:
        The execution backend, ``"instrumented"`` or ``"vectorized"``
        (also ``notes["backend"]``).
    machine:
        The machine model the passes price against. Not on the wire: a
        shard worker supplies the one it was initialised with.
    encoding:
        The access-encoding mode, ``"auto"`` or ``"off"``.
    override:
        The adaptive loop's measured statistics, or ``None``.
    """

    fingerprint: str
    strategy: str
    backend: str
    machine: MachineModel
    encoding: str
    override: Optional[StatsOverride] = None

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-safe form a shard task carries beside the plan."""
        wire = self._asdict()
        del wire["machine"]
        if self.override is not None:
            wire["override"] = {
                name: value
                for name, value in asdict(self.override).items()
                if value is not None
            }
        return wire

    @classmethod
    def from_wire(cls, wire: Any, machine: MachineModel) -> "CompileSpec":
        """Inverse of :meth:`to_wire`; malformed input is a
        :class:`~repro.errors.PlanError`, like a malformed plan
        envelope."""
        try:
            texts = [
                wire[name]
                for name in ("fingerprint", "strategy", "backend", "encoding")
            ]
            override = wire["override"]
            if override is not None:
                override = StatsOverride(**override)
        except (KeyError, TypeError) as exc:
            raise PlanError(
                f"malformed compile spec {wire!r}: {exc!r}"
            ) from exc
        if not all(isinstance(text, str) for text in texts):
            raise PlanError(f"malformed compile spec {wire!r}")
        fingerprint, strategy, backend, encoding = texts
        return cls(fingerprint, strategy, backend, machine, encoding, override)


def plan_key(
    query,
    strategy: str,
    machine: MachineModel = PAPER_MACHINE,
    tile: int = 0,
    backend: str = "instrumented",
    shards: int = 0,
    encoding: str = "auto",
) -> CompileSpec:
    """Mint the :class:`CompileSpec` of one compilation of ``query``.

    The one place a spec is made from a query. ``strategy`` must
    already be resolved; the adaptive engine attaches its ``override``
    with ``_replace``.
    """
    # ``tile`` and ``shards`` select no program and are ignored; the
    # positional call at ledger/layers.py:285 pins the signature.
    return CompileSpec(
        normalize_query(query)[1], strategy, backend, machine, encoding
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
        With a query ``fingerprint`` (``CompileSpec.fingerprint``), only
        that query's compilations are dropped — every strategy /
        machine / backend / encoding cell — and the counter ticks once
        per dropped entry. The adaptive re-optimizer uses the targeted form so a
        drifted plan recompiles without cooling every other query.
        """
        if fingerprint is not None:
            return self.invalidate_where(
                lambda key: getattr(key, "fingerprint", None) == fingerprint
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
