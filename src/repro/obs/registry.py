"""Process-wide metrics registry: counters, gauges, striped histograms.

The serving stack had stats in four separate islands — the plan cache,
the dataset cache, the worker pool, and the query service each kept
their own ad-hoc ``snapshot()`` dict. This module gives them one home:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments,
  created on demand by ``(name, labels)`` and shared by identity — two
  call sites asking for ``counter("queries_total", strategy="swole")``
  increment the same cell. A resolved cell is memoised under the
  ``(name, labels)`` spelling the call used, so the name check and the
  label sort run once per spelling, not once per update;
* **stat sources**: a component registers a zero-argument callable
  (typically its existing ``stats.snapshot`` bound method) and the
  registry folds its dict into every :meth:`MetricsRegistry.snapshot`,
  so legacy stats join the registry without being rewritten;
* a :class:`~repro.obs.slowlog.SlowQueryLog` and
  :class:`~repro.obs.slowlog.ErrorLog`, owned by the registry and
  included in the snapshot;
* Prometheus-style text exposition (:meth:`render_prometheus`) for
  scraping by anything that speaks the ``text/plain; version=0.0.4``
  format.

Histogram updates are **lock-striped**: each histogram shards its
state over several independently-locked stripes chosen by thread id, so
concurrent service threads observing latencies do not serialise on one
lock; :meth:`Histogram.merged` folds the stripes at read time (reads
are rare, writes are the hot path).

Snapshots are plain JSON-safe dicts by construction — the ``stats``
wire request returns one verbatim.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ReproError
from .slowlog import ErrorLog, SlowQueryLog

#: Metric and label names must be Prometheus-legal identifiers.
_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds, in seconds (spans are the
#: main histogram user); the implicit +Inf bucket is always present.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Stripes per histogram: enough that a handful of service threads
#: rarely collide, small enough that merging stays trivial.
_HISTOGRAM_STRIPES = 8

#: One metric cell's identity: (name, sorted label items).
_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ReproError(
            f"metric name {name!r} is not a valid identifier "
            "([a-zA-Z_][a-zA-Z0-9_]*)"
        )
    return name


def _label_key(labels: Mapping[str, Any]) -> Tuple[Tuple[str, str], ...]:
    for label in labels:
        _check_name(label)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _flat_name(key: _Key) -> str:
    """``name{k=v,...}`` — the snapshot-dict spelling of one cell."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ReproError("counters only go up; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class _HistogramStripe:
    __slots__ = ("lock", "count", "total", "min", "max", "buckets")

    def __init__(self, n_buckets: int) -> None:
        self.lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * n_buckets


class Histogram:
    """Fixed-bucket histogram with lock-striped updates.

    :meth:`observe` touches only the calling thread's stripe; readers
    pay the cost of merging all stripes under their locks.
    """

    __slots__ = ("bounds", "_stripes")

    def __init__(
        self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        if tuple(bounds) != tuple(sorted(bounds)):
            raise ReproError("histogram bucket bounds must be sorted")
        self.bounds = tuple(bounds)
        # +1 for the implicit +Inf bucket.
        self._stripes = [
            _HistogramStripe(len(self.bounds) + 1)
            for _ in range(_HISTOGRAM_STRIPES)
        ]

    def observe(self, value: float) -> None:
        stripe = self._stripes[
            threading.get_ident() % _HISTOGRAM_STRIPES
        ]
        index = bisect_left(self.bounds, value)
        with stripe.lock:
            stripe.count += 1
            stripe.total += value
            stripe.buckets[index] += 1
            if stripe.min is None or value < stripe.min:
                stripe.min = value
            if stripe.max is None or value > stripe.max:
                stripe.max = value

    def merged(self) -> dict:
        """Fold the stripes into one JSON-safe summary."""
        count = 0
        total = 0.0
        lo: Optional[float] = None
        hi: Optional[float] = None
        buckets = [0] * (len(self.bounds) + 1)
        for stripe in self._stripes:
            with stripe.lock:
                count += stripe.count
                total += stripe.total
                for i, n in enumerate(stripe.buckets):
                    buckets[i] += n
                if stripe.min is not None:
                    lo = stripe.min if lo is None else min(lo, stripe.min)
                if stripe.max is not None:
                    hi = stripe.max if hi is None else max(hi, stripe.max)
        return {
            "count": count,
            "sum": total,
            "avg": total / count if count else 0.0,
            "min": lo if lo is not None else 0.0,
            "max": hi if hi is not None else 0.0,
            "buckets": {
                **{str(b): n for b, n in zip(self.bounds, buckets)},
                "+Inf": buckets[-1],
            },
        }


class MetricsRegistry:
    """One process-wide home for every telemetry signal.

    Instruments are addressed by ``(name, **labels)`` and created on
    first use; **sources** are zero-argument callables whose dicts are
    folded into the snapshot under their registered name (re-registering
    a name replaces the previous source — engines and services created
    later win, which is what a serving process wants).
    """

    def __init__(
        self,
        *,
        slow_log: Optional[SlowQueryLog] = None,
        error_log: Optional[ErrorLog] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[_Key, Counter] = {}
        self._gauges: Dict[_Key, Gauge] = {}
        self._histograms: Dict[_Key, Histogram] = {}
        #: (kind, name, labels as passed) -> resolved cell.
        self._memo: Dict[tuple, Any] = {}
        self._sources: Dict[str, Callable[[], Mapping[str, Any]]] = {}
        self.slow_log = slow_log if slow_log is not None else SlowQueryLog()
        self.error_log = error_log if error_log is not None else ErrorLog()
        self.created_at = time.time()

    # -- instruments -----------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._cell(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._cell(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._cell(self._histograms, Histogram, name, labels)

    def _cell(self, cells: dict, kind: type, name: str, labels: dict):
        """The ``kind`` cell for ``(name, labels)``, memoised under the
        spelling the call passed; validated and sorted only on a miss.
        Only all-string label values are memoised: ``1`` and ``True``
        are equal as keys but are different labels."""
        spelling = (kind, name, *labels.items())
        cell = self._memo.get(spelling)
        if cell is not None:
            return cell
        key = (_check_name(name), _label_key(labels))
        with self._lock:
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = kind()
        if all(type(value) is str for value in labels.values()):
            self._memo[spelling] = cell
        return cell

    # -- sources ---------------------------------------------------------

    def register_source(
        self, name: str, fn: Callable[[], Mapping[str, Any]]
    ) -> None:
        """Fold ``fn()`` into snapshots under ``name`` (replaces any
        previous source of the same name)."""
        with self._lock:
            self._sources[name] = fn

    def unregister_source(self, name: str) -> None:
        with self._lock:
            self._sources.pop(name, None)

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything, as one JSON-safe dict."""
        with self._lock:
            sources = dict(self._sources)
        source_snaps: Dict[str, Any] = {}
        for name, fn in sources.items():
            try:
                source_snaps[name] = dict(fn())
            except Exception as exc:  # a broken source must not kill stats
                message = f"{type(exc).__name__}: {exc}"
                self.counter("stats_source_errors_total", source=name).inc()
                self.error_log.record("stats.source", f"{name}: {message}")
                source_snaps[name] = {"error": message}
        # Read after the sources ran, so a failure above is counted in
        # the same snapshot that reports it.
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                _flat_name(k): c.value for k, c in sorted(counters.items())
            },
            "gauges": {
                _flat_name(k): g.value for k, g in sorted(gauges.items())
            },
            "histograms": {
                _flat_name(k): h.merged()
                for k, h in sorted(histograms.items())
            },
            "sources": source_snaps,
            "slow_queries": self.slow_log.snapshot(),
            "errors": self.error_log.snapshot(),
        }

    def render_prometheus(self, prefix: str = "repro") -> str:
        """The registry in Prometheus text exposition format.

        Instruments keep their names (prefixed); numeric leaves of stat
        sources are exported as ``<prefix>_<source>_<key>`` gauges.
        """
        snap = self.snapshot()
        lines: List[str] = []

        def labelled(flat: str) -> str:
            # name{k=v,...} -> prefixed name{k="v",...}
            if "{" not in flat:
                return f"{prefix}_{flat}"
            name, _, inner = flat.partition("{")
            inner = inner.rstrip("}")
            pairs = [pair.partition("=") for pair in inner.split(",")]
            quoted = ",".join(
                f'{k}="{_escape(v)}"' for k, _, v in pairs
            )
            return f"{prefix}_{name}{{{quoted}}}"

        seen_types: Dict[str, str] = {}

        def typeline(flat: str, kind: str) -> None:
            base = f"{prefix}_{flat.partition('{')[0]}"
            if seen_types.get(base) != kind:
                seen_types[base] = kind
                lines.append(f"# TYPE {base} {kind}")

        for flat, value in snap["counters"].items():
            typeline(flat, "counter")
            lines.append(f"{labelled(flat)} {value}")
        for flat, value in snap["gauges"].items():
            typeline(flat, "gauge")
            lines.append(f"{labelled(flat)} {value}")
        for flat, hist in snap["histograms"].items():
            typeline(flat, "histogram")
            name, _, inner = flat.partition("{")
            inner = inner.rstrip("}")
            cumulative = 0
            for bound, n in hist["buckets"].items():
                cumulative += n
                extra = f"le={bound}"  # labelled() adds the quoting
                label_body = f"{inner},{extra}" if inner else extra
                rendered = labelled(f"{name}_bucket{{{label_body}}}")
                lines.append(f"{rendered} {cumulative}")
            lines.append(f"{labelled(flat.replace(name, name + '_sum', 1))} "
                         f"{hist['sum']}")
            lines.append(
                f"{labelled(flat.replace(name, name + '_count', 1))} "
                f"{hist['count']}"
            )
        for source, values in snap["sources"].items():
            for key, value in values.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                flat = _sanitize(f"{source}_{key}")
                typeline(flat, "gauge")
                lines.append(f"{prefix}_{flat} {value}")
        return "\n".join(lines) + "\n"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"")


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_]", cleaned[0]):
        cleaned = f"_{cleaned}"
    return cleaned


_default_registry: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def metrics_registry() -> MetricsRegistry:
    """The process-wide default registry (created on first use)."""
    global _default_registry
    if _default_registry is None:
        with _default_lock:
            if _default_registry is None:
                _default_registry = MetricsRegistry()
    return _default_registry


def set_metrics_registry(registry: Optional[MetricsRegistry]) -> None:
    """Swap the process-wide default (tests; ``None`` resets lazily)."""
    global _default_registry
    with _default_lock:
        _default_registry = registry
