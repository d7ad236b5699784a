"""Per-run execution metrics for the morsel executor.

The simulator substrate prices *work* (event cycles); this module adds
the run-level bookkeeping a serving engine needs: real wall time, morsel
and worker accounting and cache-simulator event counts. Simulated
cycles come from one serial pass (the instrumented backend never fans
out), so a run has one set of them; parallel time is measured on the
wall clock only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .costing import CostReport
from .machine import MachineModel


@dataclass
class WorkerStats:
    """Real busy time of one pool worker during a parallel run."""

    worker_id: int
    wall_seconds: float = 0.0


@dataclass
class RunMetrics:
    """Run-level metrics attached to ``QueryResult.report.metrics``."""

    wall_seconds: float
    workers: int
    morsels: int
    #: Rows per morsel — the split size used to partition the scan. A
    #: serial run is one morsel spanning the whole scan, so its
    #: ``morsel_rows`` equals ``scan_rows``; both are 0 when the program
    #: declares no :class:`~repro.engine.program.ParallelPlan` (the
    #: executor then cannot see the scan length). The final morsel of a
    #: parallel run may be shorter (``scan_rows`` is not necessarily a
    #: multiple of ``morsel_rows``).
    morsel_rows: int
    parallel: bool
    machine: MachineModel
    #: Total rows of the partitioned base-table scan (0 when unknown —
    #: i.e. the program declared no parallel plan).
    scan_rows: int = 0
    #: True when the morsels ran on shard worker *processes*
    #: (:mod:`repro.engine.shard`); ``workers`` then counts shards.
    sharded: bool = False
    #: Simulated work of the run's one serial pass, in cycles.
    total_cycles: float = 0.0
    #: Cache-simulator event counts by event kind (SeqRead, CondRead...).
    event_counts: Dict[str, int] = field(default_factory=dict)
    worker_stats: List[WorkerStats] = field(default_factory=list)
    #: "hit" / "miss" when the program came through a plan cache.
    plan_cache: Optional[str] = None
    #: Seconds the request waited in the service's admission queue
    #: before a service worker picked it up (0 outside the serving
    #: layer — library calls are never queued).
    queue_wait_seconds: float = 0.0
    #: Seconds of actual service time (dequeue to response) when the
    #: run came through the query service; 0 for direct library calls
    #: (``wall_seconds`` covers those).
    service_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Simulated time of the run's work."""
        return self.machine.cycles_to_seconds(self.total_cycles)

    def describe(self) -> str:
        shape = (
            f"{self.workers} workers x {self.morsels} morsels "
            f"({self.morsel_rows} rows each"
            + (f", {self.scan_rows} scanned" if self.scan_rows else "")
            + (", sharded" if self.sharded else "")
            + ")"
            if self.parallel
            else "serial"
        )
        lines = [
            f"run: {shape}, wall {self.wall_seconds * 1e3:.1f} ms",
            f"simulated: {self.total_seconds:.4f} s",
        ]
        if self.plan_cache is not None:
            lines.append(f"plan cache: {self.plan_cache}")
        if self.queue_wait_seconds or self.service_seconds:
            lines.append(
                f"service: queued {self.queue_wait_seconds * 1e3:.1f} ms, "
                f"served in {self.service_seconds * 1e3:.1f} ms"
            )
        if self.event_counts:
            counts = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.event_counts.items())
            )
            lines.append(f"events: {counts}")
        return "\n".join(lines)


def event_counts(report: CostReport) -> Dict[str, int]:
    """Count the report's cache-simulator events by kind."""
    counts: Dict[str, int] = {}
    for _, event, _ in report.events:
        kind = type(event).__name__
        counts[kind] = counts.get(kind, 0) + 1
    return counts
