"""Per-fingerprint feedback store: measured run statistics as EWMAs.

The engine already *measures* the quantities the planner only
*estimates*: the instrumented backend's event stream carries real
predicate selectivities (``CondRead.n_selected / n_range``), branch
outcome fractions, random-access counts and hash-table footprints,
and every run — either backend — reports wall clock, simulated
cycles, and scan shape through :class:`~repro.engine.metrics.RunMetrics`.

This module folds those observations into bounded per-fingerprint
summaries. Each statistic is an exponentially-weighted moving average,
so the store is O(1) per observation and per fingerprint, tracks
workload drift with a tunable horizon, and — crucially for the
re-optimizer's determinism guarantee — folds the same observation
sequence into exactly the same summary every time.

Vectorized runs have no event stream; they contribute wall-clock-only
observations. The strategy chooser's exploration keeps instrumented
arms sampled, so selectivity telemetry keeps flowing even when the
serving default is the vectorized backend.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..engine.events import Branch, CondRead, RandomAccess, StatSample
from ..errors import ReproError

#: Per-(strategy, backend) arm key.
Arm = Tuple[str, str]


@dataclass(frozen=True)
class Observation:
    """One execution's measured statistics, ready to fold.

    ``selectivity`` is the observed survival fraction of the probe
    spine, or ``None`` when the run produced no conditional-access
    events to measure it from (vectorized runs, fully masked SWOLE
    plans). ``match_fraction`` and ``group_cardinality`` come from the
    instrumented backend's zero-cost :class:`~repro.engine.events.
    StatSample` telemetry: the product of per-join semijoin hit
    fractions, and the distinct group count of the terminal
    aggregation.
    """

    wall_seconds: float
    total_cycles: float = 0.0
    scan_rows: int = 0
    parallel: bool = False
    selectivity: Optional[float] = None
    random_accesses: int = 0
    ht_bytes: int = 0
    events: int = 0
    match_fraction: Optional[float] = None
    group_cardinality: Optional[float] = None


def observation_from_run(report, metrics) -> Observation:
    """Extract an :class:`Observation` from one completed execution.

    ``report`` is the run's :class:`~repro.engine.costing.CostReport`,
    ``metrics`` its :class:`~repro.engine.metrics.RunMetrics` (may be
    ``None`` for plain ``CompiledQuery.run`` calls).

    Selectivity comes from conditional access, in preference order:

    * ``CondRead`` events over base arrays (``array_bytes == 0``):
      gathers driven by a selection vector report exactly the fraction
      of scanned rows that survived — the hybrid strategy's signal.
    * ``Branch`` events: the per-site taken fractions multiply into the
      conjunction's survival (each conjunct's branch only runs for the
      previous conjunct's survivors) — the data-centric signal.

    Masked plans read unconditionally (that is their point), so a pure
    SWOLE run may carry neither; the chooser's exploration of the
    conditional-access arms provides the telemetry instead.
    """
    cond_range = 0
    cond_selected = 0
    branch_sites: Dict[str, Tuple[float, float]] = {}
    join_sites: Dict[str, Tuple[float, float]] = {}
    group_cardinality: Optional[float] = None
    random_n = 0
    ht_bytes = 0
    n_events = 0
    for _, event, _ in report.events:
        n_events += 1
        if isinstance(event, CondRead):
            if not event.array_bytes:
                cond_range += event.n_range
                cond_selected += event.n_selected
        elif isinstance(event, Branch):
            n, taken = branch_sites.get(event.site, (0.0, 0.0))
            branch_sites[event.site] = (
                n + event.n,
                taken + event.n * event.taken_fraction,
            )
        elif isinstance(event, StatSample):
            # Zero-cost instrumented telemetry. Join probes report
            # (probes, hits) per join site; terminal aggregations
            # report their distinct group count (an instrumented run is
            # one serial pass, so the max is exact).
            if event.kind == "join_match":
                n, hits = join_sites.get(event.site, (0.0, 0.0))
                join_sites[event.site] = (n + event.n, hits + event.value)
            elif event.kind == "group_cardinality":
                group_cardinality = max(
                    group_cardinality or 0.0, float(event.value)
                )
        elif isinstance(event, RandomAccess):
            random_n += event.n
            ht_bytes = max(ht_bytes, event.struct_bytes)
    selectivity: Optional[float] = None
    if cond_range > 0:
        selectivity = cond_selected / cond_range
    elif branch_sites:
        survival = 1.0
        for n, taken in branch_sites.values():
            if n > 0:
                survival *= taken / n
        selectivity = survival
    match_fraction: Optional[float] = None
    if join_sites:
        match_fraction = 1.0
        for n, hits in join_sites.values():
            if n > 0:
                match_fraction *= hits / n
    return Observation(
        wall_seconds=metrics.wall_seconds if metrics is not None else 0.0,
        total_cycles=float(report.total_cycles),
        scan_rows=metrics.scan_rows if metrics is not None else 0,
        parallel=bool(metrics.parallel) if metrics is not None else False,
        selectivity=selectivity,
        random_accesses=random_n,
        ht_bytes=ht_bytes,
        events=n_events,
        match_fraction=match_fraction,
        group_cardinality=group_cardinality,
    )


class Ewma:
    """An exponentially-weighted moving average with a sample count.

    The first sample seeds the average (no zero-bias warm-up), so a
    single observation is already a usable estimate.
    """

    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0.0
        self.count = 0

    def fold(self, sample: float, alpha: float) -> None:
        sample = float(sample)
        if self.count == 0:
            self.value = sample
        else:
            self.value += alpha * (sample - self.value)
        self.count += 1

    def snapshot(self) -> dict:
        return {"value": self.value, "n": self.count}

    @classmethod
    def from_snapshot(cls, state: dict) -> "Ewma":
        ewma = cls()
        ewma.value = float(state.get("value", 0.0))
        ewma.count = int(state.get("n", 0))
        return ewma


class FingerprintSummary:
    """Bounded summary of everything observed for one plan fingerprint."""

    __slots__ = (
        "observations",
        "wall_seconds",
        "total_cycles",
        "selectivity",
        "match_fraction",
        "group_cardinality",
        "random_accesses",
        "ht_bytes",
        "event_total",
        "arms",
    )

    def __init__(self) -> None:
        self.observations = 0
        self.wall_seconds = Ewma()
        self.total_cycles = Ewma()
        self.selectivity = Ewma()
        self.match_fraction = Ewma()
        self.group_cardinality = Ewma()
        self.random_accesses = Ewma()
        self.ht_bytes = 0
        self.event_total = 0
        #: Per-(strategy, backend) wall-clock EWMAs — the chooser's
        #: reward signal.
        self.arms: Dict[Arm, Ewma] = {}

    def snapshot(self) -> dict:
        return {
            "observations": self.observations,
            "wall_seconds": self.wall_seconds.snapshot(),
            "total_cycles": self.total_cycles.snapshot(),
            "selectivity": self.selectivity.snapshot(),
            "match_fraction": self.match_fraction.snapshot(),
            "group_cardinality": self.group_cardinality.snapshot(),
            "random_accesses": self.random_accesses.snapshot(),
            "ht_bytes": self.ht_bytes,
            "event_total": self.event_total,
            "arms": {
                f"{strategy}/{backend}": ewma.snapshot()
                for (strategy, backend), ewma in sorted(self.arms.items())
            },
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "FingerprintSummary":
        summary = cls()
        summary.observations = int(state.get("observations", 0))
        for name in (
            "wall_seconds",
            "total_cycles",
            "selectivity",
            "match_fraction",
            "group_cardinality",
            "random_accesses",
        ):
            if name in state:
                setattr(summary, name, Ewma.from_snapshot(state[name]))
        summary.ht_bytes = int(state.get("ht_bytes", 0))
        summary.event_total = int(state.get("event_total", 0))
        for arm_name, arm_state in state.get("arms", {}).items():
            strategy, _, backend = arm_name.partition("/")
            summary.arms[(strategy, backend)] = Ewma.from_snapshot(
                arm_state
            )
        return summary


def _items(section: Any):
    """A snapshot section's items; a section that is not a mapping
    restores as empty."""
    return section.items() if isinstance(section, dict) else ()


class FeedbackStore:
    """Thread-safe, bounded store of per-fingerprint EWMA summaries.

    ``alpha`` is the EWMA smoothing factor (higher adapts faster,
    forgets faster); ``max_fingerprints`` bounds memory — the least
    recently *recorded* fingerprint is evicted past the cap, matching
    the plan cache's LRU discipline.

    Besides the per-fingerprint summaries, the store keeps a host-global
    serial-vs-parallel wall-clock ledger bucketed by scan size, from
    which :meth:`crossover_rows` derives the measured thread fan-out
    floor (the adaptive replacement for the hard-coded
    ``repro.engine.executor.MIN_PARALLEL_ROWS`` constant).
    """

    def __init__(
        self, *, alpha: float = 0.2, max_fingerprints: int = 256
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ReproError("feedback alpha must be in (0, 1]")
        if max_fingerprints < 1:
            raise ReproError("feedback store needs capacity for at least 1")
        self.alpha = alpha
        self.max_fingerprints = max_fingerprints
        self._lock = threading.Lock()
        self._summaries: "OrderedDict[str, FingerprintSummary]" = (
            OrderedDict()
        )
        #: log2(scan_rows) bucket -> {parallel?: wall EWMA}.
        self._fanout: Dict[int, Dict[bool, Ewma]] = {}
        self._recorded = 0

    # -- recording -------------------------------------------------------

    def record(
        self,
        fingerprint: str,
        strategy: str,
        backend: str,
        observation: Observation,
    ) -> None:
        """Fold one execution's observation into the summaries.

        Safe under concurrent recording from service threads and pool
        workers; folds serialise on one lock (each fold is a handful of
        float ops, so the lock is never hot relative to a query).
        """
        alpha = self.alpha
        with self._lock:
            self._recorded += 1
            summary = self._summaries.get(fingerprint)
            if summary is None:
                summary = FingerprintSummary()
                self._summaries[fingerprint] = summary
                while len(self._summaries) > self.max_fingerprints:
                    self._summaries.popitem(last=False)
            else:
                self._summaries.move_to_end(fingerprint)
            summary.observations += 1
            summary.wall_seconds.fold(observation.wall_seconds, alpha)
            summary.total_cycles.fold(observation.total_cycles, alpha)
            if observation.selectivity is not None:
                summary.selectivity.fold(observation.selectivity, alpha)
            if observation.match_fraction is not None:
                summary.match_fraction.fold(
                    observation.match_fraction, alpha
                )
            if observation.group_cardinality is not None:
                summary.group_cardinality.fold(
                    observation.group_cardinality, alpha
                )
            summary.random_accesses.fold(
                observation.random_accesses, alpha
            )
            summary.ht_bytes = max(summary.ht_bytes, observation.ht_bytes)
            summary.event_total += observation.events
            arm = summary.arms.get((strategy, backend))
            if arm is None:
                arm = summary.arms[(strategy, backend)] = Ewma()
            arm.fold(observation.wall_seconds, alpha)
            if observation.scan_rows > 0:
                bucket = max(observation.scan_rows, 1).bit_length() - 1
                by_mode = self._fanout.setdefault(bucket, {})
                mode = by_mode.get(observation.parallel)
                if mode is None:
                    mode = by_mode[observation.parallel] = Ewma()
                mode.fold(observation.wall_seconds, alpha)

    # -- reads -----------------------------------------------------------

    def summary(self, fingerprint: str) -> Optional[FingerprintSummary]:
        """The live summary for a fingerprint (``None`` if unseen)."""
        with self._lock:
            return self._summaries.get(fingerprint)

    def observed_selectivity(
        self, fingerprint: str
    ) -> Optional[Tuple[float, int]]:
        """``(EWMA value, sample count)`` of the measured survival
        fraction, or ``None`` before any conditional-access run."""
        with self._lock:
            summary = self._summaries.get(fingerprint)
            if summary is None or summary.selectivity.count == 0:
                return None
            return summary.selectivity.value, summary.selectivity.count

    def observed_match_fraction(
        self, fingerprint: str
    ) -> Optional[Tuple[float, int]]:
        """``(EWMA value, sample count)`` of the measured semijoin
        match fraction, or ``None`` before any instrumented join run."""
        with self._lock:
            summary = self._summaries.get(fingerprint)
            if summary is None or summary.match_fraction.count == 0:
                return None
            return (
                summary.match_fraction.value,
                summary.match_fraction.count,
            )

    def observed_group_cardinality(
        self, fingerprint: str
    ) -> Optional[Tuple[float, int]]:
        """``(EWMA value, sample count)`` of the measured distinct
        group count, or ``None`` before any instrumented grouped run."""
        with self._lock:
            summary = self._summaries.get(fingerprint)
            if summary is None or summary.group_cardinality.count == 0:
                return None
            return (
                summary.group_cardinality.value,
                summary.group_cardinality.count,
            )

    def best_arm(self, fingerprint: str) -> Optional[Arm]:
        """The (strategy, backend) with the lowest wall-clock EWMA, or
        ``None`` before any observation. Ties break by arm name so the
        exploit choice is deterministic."""
        with self._lock:
            summary = self._summaries.get(fingerprint)
            if summary is None or not summary.arms:
                return None
            return min(
                summary.arms,
                key=lambda arm: (summary.arms[arm].value, arm),
            )

    def crossover_rows(self) -> Optional[int]:
        """Measured serial-vs-parallel crossover scan size for this host.

        The smallest power-of-two scan size at which the parallel wall
        EWMA beats the serial one (requires both modes sampled in that
        bucket); ``None`` until some bucket has both, or when serial
        wins everywhere that has been measured.
        """
        with self._lock:
            for bucket in sorted(self._fanout):
                by_mode = self._fanout[bucket]
                serial = by_mode.get(False)
                parallel = by_mode.get(True)
                if serial is None or parallel is None:
                    continue
                if parallel.value < serial.value:
                    return 1 << bucket
            return None

    def snapshot(self) -> dict:
        """JSON-safe view of the whole store (obs stat source)."""
        with self._lock:
            return {
                "recorded": self._recorded,
                "fingerprints": len(self._summaries),
                "capacity": self.max_fingerprints,
                "alpha": self.alpha,
                "summaries": {
                    fingerprint: summary.snapshot()
                    for fingerprint, summary in self._summaries.items()
                },
                "fanout": {
                    str(1 << bucket): {
                        ("parallel" if parallel else "serial"): (
                            ewma.snapshot()
                        )
                        for parallel, ewma in sorted(by_mode.items())
                    }
                    for bucket, by_mode in sorted(self._fanout.items())
                },
            }

    # -- persistence -----------------------------------------------------

    def restore(self, state: dict) -> int:
        """Rehydrate the store from a prior :meth:`snapshot`.

        Returns the number of fingerprints restored. Restored summaries
        replace any same-fingerprint state already in the store; the
        eviction order treats them as the oldest entries, and restoring
        past capacity keeps only the last ``max_fingerprints``. A
        malformed state raises nothing fatal — whatever does not parse
        (a summary, a fan-out bucket, the ``recorded`` count, a section
        of the wrong shape) is skipped, so a partially-corrupt snapshot
        degrades to a cold start rather than a crash.
        """
        restored = 0
        with self._lock:
            try:
                self._recorded = max(
                    self._recorded, int(state.get("recorded", 0))
                )
            except (TypeError, ValueError):
                pass
            for fingerprint, raw in _items(state.get("summaries")):
                try:
                    summary = FingerprintSummary.from_snapshot(raw)
                except (TypeError, ValueError, KeyError, AttributeError):
                    continue
                self._summaries[fingerprint] = summary
                self._summaries.move_to_end(fingerprint)
                restored += 1
                while len(self._summaries) > self.max_fingerprints:
                    self._summaries.popitem(last=False)
            for size, by_mode in _items(state.get("fanout")):
                try:
                    bucket = max(int(size), 1).bit_length() - 1
                except (TypeError, ValueError):
                    continue
                modes = self._fanout.setdefault(bucket, {})
                for mode_name, raw in _items(by_mode):
                    try:
                        modes[mode_name == "parallel"] = (
                            Ewma.from_snapshot(raw)
                        )
                    except (TypeError, ValueError, AttributeError):
                        continue
        return restored


__all__ = [
    "Arm",
    "Ewma",
    "FeedbackStore",
    "FingerprintSummary",
    "Observation",
    "observation_from_run",
]
