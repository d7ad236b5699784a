"""Per-run execution metrics for the morsel executor.

The simulator substrate prices *work* (event cycles); this module adds
the run-level bookkeeping a serving engine needs: real wall time, morsel
and worker accounting, cache-simulator event counts, and the *parallel*
simulated time — the critical path through a deterministic greedy
schedule of morsel costs onto the simulated machine's cores.

The schedule is computed from per-morsel simulated cycles rather than
from real thread timings, so parallel simulated seconds are bit-stable
across runs regardless of how the host OS interleaved the worker
threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .costing import CostReport
from .machine import MachineModel


@dataclass
class WorkerStats:
    """What one (simulated) worker executed during a parallel run."""

    worker_id: int
    morsels: int = 0
    sim_cycles: float = 0.0
    wall_seconds: float = 0.0
    by_kernel: Dict[str, float] = field(default_factory=dict)


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
    #: Total simulated work (sum over all workers/morsels), in cycles.
    total_cycles: float = 0.0
    #: Critical-path simulated cycles: serial setup/finalize plus the
    #: longest simulated worker after greedy morsel scheduling.
    critical_path_cycles: float = 0.0
    #: The non-partitionable portion of the critical path (setup and
    #: finalize phases); 0 for pure scans and serial runs.
    serial_cycles: float = 0.0
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
    def parallel_seconds(self) -> float:
        """Simulated wall time of the parallel schedule."""
        return self.machine.cycles_to_seconds(self.critical_path_cycles)

    @property
    def total_seconds(self) -> float:
        """Simulated time of the same work run serially."""
        return self.machine.cycles_to_seconds(self.total_cycles)

    @property
    def speedup(self) -> float:
        """Simulated speedup of the schedule over serial execution."""
        if self.critical_path_cycles <= 0:
            return 1.0
        return self.total_cycles / self.critical_path_cycles

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
            f"simulated: {self.total_seconds:.4f} s total work, "
            f"{self.parallel_seconds:.4f} s critical path "
            f"({self.speedup:.2f}x)",
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


def merge_reports(
    machine: MachineModel, reports: Sequence[CostReport]
) -> CostReport:
    """Sum several per-worker/per-morsel reports into one.

    Merges the per-report aggregates (already summed once, at emit
    time) instead of re-adding every event — this runs once per query
    on the serving path, and per-event re-aggregation dominated short
    queries.
    """
    merged = CostReport(machine=machine)
    by_kernel = merged.by_kernel
    by_kind = merged.by_kind
    total = 0.0
    for report in reports:
        total += report.total_cycles
        for kernel, cycles in report.by_kernel.items():
            by_kernel[kernel] = by_kernel.get(kernel, 0.0) + cycles
        for kind, cycles in report.by_kind.items():
            by_kind[kind] = by_kind.get(kind, 0.0) + cycles
        merged.events.extend(report.events)
    merged.total_cycles = total
    return merged


def greedy_schedule(
    morsel_cycles: Sequence[float], workers: int
) -> Tuple[List[WorkerStats], List[int]]:
    """Deterministically assign morsel costs to simulated workers.

    Morsels are dispatched in order to the least-loaded worker — the
    steady state a work-stealing morsel dispatcher converges to — so the
    simulated critical path does not depend on real thread interleaving.
    Returns the per-worker stats and the worker id chosen per morsel.
    """
    stats = [WorkerStats(worker_id=i) for i in range(max(workers, 1))]
    heap = [(0.0, i) for i in range(len(stats))]
    heapq.heapify(heap)
    assignment: List[int] = []
    for cycles in morsel_cycles:
        load, i = heapq.heappop(heap)
        stats[i].morsels += 1
        stats[i].sim_cycles += cycles
        assignment.append(i)
        heapq.heappush(heap, (load + cycles, i))
    return stats, assignment
