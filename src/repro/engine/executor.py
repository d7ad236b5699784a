"""Morsel-driven parallel execution of compiled query programs.

The executor partitions a program's base-table scan into row-range
*morsels* (Leis et al., "Morsel-Driven Parallelism") and drains them on
the persistent thread pool (:mod:`repro.engine.pool`): the NumPy
kernels release the GIL in the hot loops, so scan morsels genuinely
overlap on multicore hosts, and a plan whose ``partial`` is remote
(:func:`repro.engine.shard.remote_plan`) runs its morsels in shard
worker processes while the same threads wait on their pipes.
Everything around the pool — fan-out floor, setup/finalize costing, the
deterministic merge (:func:`repro.engine.program.merge_partials`), the
simulated schedule and the run metrics — happens here, once, so a
4-worker or 4-shard run is bit-identical to a serial run and measured
the same way.

Costing extends to parallel time: each morsel's simulated cycles are
measured on its own tracer, then scheduled greedily onto the simulated
machine's cores (:func:`repro.engine.metrics.greedy_schedule`). The
schedule — not real thread timing — defines the run's critical path, so
simulated parallel seconds are reproducible on any host, including
single-core CI runners.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional, Tuple

from ..errors import ExecutionError
from ..obs import MetricsRegistry, span
from .cancellation import CancelToken
from .costing import CostReport
from .metrics import RunMetrics, event_counts, greedy_schedule, merge_reports
from .pool import MorselBatch, WorkerPool
from .program import CompiledQuery, QueryResult, merge_partials
from .session import Session

#: Morsels smaller than this lose more to per-morsel bookkeeping than
#: they gain in balance; scans shorter than one minimum morsel run serial.
MIN_MORSEL_ROWS = 4096

#: Target morsels per worker when the session does not pin a size —
#: enough slack for the greedy schedule to balance skewed morsels.
MORSELS_PER_WORKER = 8


def pick_morsel_rows(n_rows: int, workers: int, pinned: Optional[int]) -> int:
    """Morsel size: the pinned knob, or n / (workers * slack), floored."""
    if pinned is not None:
        if pinned <= 0:
            raise ExecutionError("morsel_rows must be positive")
        return pinned
    per_worker = max(n_rows // max(workers * MORSELS_PER_WORKER, 1), 1)
    return max(per_worker, MIN_MORSEL_ROWS)


def split_morsels(n_rows: int, morsel_rows: int) -> List[Tuple[int, int]]:
    """Row ranges ``[lo, hi)`` covering ``[0, n_rows)``."""
    return [
        (lo, min(lo + morsel_rows, n_rows))
        for lo in range(0, n_rows, morsel_rows)
    ]


class MorselExecutor:
    """Runs compiled programs, fanning partitionable scans across
    ``workers`` threads of a :class:`~repro.engine.pool.WorkerPool`.

    Programs without a :class:`~repro.engine.program.ParallelPlan` (or
    runs on one in-process worker) execute serially through the
    program's own ``run``; either way the result carries
    :class:`RunMetrics`.

    ``pool`` defaults to a private pool; the :class:`repro.Engine`
    facade passes its persistent one. For a sharded plan ``workers``
    counts shard processes (one pool thread waits on each).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        pool: Optional[WorkerPool] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ExecutionError("executor needs at least one worker")
        self.workers = workers
        self.pool = pool if pool is not None else WorkerPool(workers)
        #: Where the morsel-execute / merge spans land; ``None`` keeps
        #: the executor span-free (direct library use stays untouched —
        #: the :class:`repro.Engine` facade always passes its registry).
        self.registry = registry

    def execute(
        self,
        compiled: CompiledQuery,
        session: Optional[Session] = None,
        *,
        cancel: Optional[CancelToken] = None,
    ) -> QueryResult:
        if session is None:
            session = Session(workers=self.workers)
        plan = compiled.parallel
        label = f"{compiled.strategy}:{compiled.name}"
        if cancel is not None:
            # Cooperative: an already-expired/cancelled token stops the
            # query before any work. The serial path cannot be
            # interrupted mid-kernel; the parallel path re-checks the
            # token at every morsel claim.
            cancel.check(label)
        started = time.perf_counter()
        serial_limit = MIN_MORSEL_ROWS
        if plan is not None and session.knobs.morsel_rows is None:
            # A backend may declare a higher fan-out floor (the
            # vectorized kernels outrun thread dispatch on small
            # scans); the session knob — set explicitly or seeded from
            # the feedback store's measured serial-vs-parallel
            # crossover — overrides the program's declared floor, and
            # an explicitly pinned morsel size overrides both.
            floor = session.knobs.min_parallel_rows
            if floor is None:
                floor = plan.min_parallel_rows
            serial_limit = max(serial_limit, floor)
        if (
            plan is None
            or (self.workers <= 1 and not plan.sharded)
            or plan.n_rows <= serial_limit
        ):
            # A serial run is a single morsel spanning the whole scan:
            # morsel_rows is that morsel's size and scan_rows the scan
            # length (both 0 when the program declares no parallel plan
            # and the scan length is therefore unknown to the executor).
            result = compiled.run(session)
            result.report.metrics = RunMetrics(
                wall_seconds=time.perf_counter() - started,
                workers=1,
                morsels=1,
                morsel_rows=plan.n_rows if plan is not None else 0,
                scan_rows=plan.n_rows if plan is not None else 0,
                parallel=False,
                machine=session.machine,
                total_cycles=result.report.total_cycles,
                critical_path_cycles=result.report.total_cycles,
                event_counts=event_counts(result.report),
            )
            return result
        return self._execute_parallel(label, session, plan, started, cancel)

    def _span(self, stage: str):
        """A tracing span on the executor's registry (inert without
        one)."""
        if self.registry is None:
            return nullcontext()
        return span(stage, self.registry)

    # -- parallel path ---------------------------------------------------

    def _execute_parallel(
        self,
        label: str,
        session: Session,
        plan,
        started: float,
        cancel: Optional[CancelToken] = None,
    ) -> QueryResult:
        session.reset()

        serial_reports: List[CostReport] = []
        ctx = None
        if plan.setup is not None:
            setup_session = session.clone()
            with setup_session.tracer.kernel(f"{label}:setup"):
                ctx = plan.setup(setup_session)
            serial_reports.append(setup_session.tracer.report)

        morsel_rows = pick_morsel_rows(
            plan.n_rows, self.workers, session.knobs.morsel_rows
        )
        morsels = split_morsels(plan.n_rows, morsel_rows)
        with self._span("morsel_execute"):
            values, morsel_reports, wall_by_worker = self.pool.run_batch(
                MorselBatch(
                    session, plan, ctx, morsels, label, self.workers, cancel
                )
            )

        with self._span("merge"):
            merged = merge_partials(values)
            if plan.finalize is not None:
                final_session = session.clone()
                with final_session.tracer.kernel(f"{label}:finalize"):
                    merged = plan.finalize(final_session, merged, ctx)
                serial_reports.append(final_session.tracer.report)

        report = merge_reports(
            session.machine, serial_reports + morsel_reports
        )
        serial_cycles = sum(r.total_cycles for r in serial_reports)
        worker_stats, assignment = greedy_schedule(
            [r.total_cycles for r in morsel_reports], self.workers
        )
        for morsel_report, worker_id in zip(morsel_reports, assignment):
            kernels = worker_stats[worker_id].by_kernel
            for kernel, cycles in morsel_report.by_kernel.items():
                kernels[kernel] = kernels.get(kernel, 0.0) + cycles
        for stats in worker_stats:
            stats.wall_seconds = wall_by_worker.get(stats.worker_id, 0.0)
        critical = serial_cycles + max(
            (s.sim_cycles for s in worker_stats), default=0.0
        )
        report.metrics = RunMetrics(
            wall_seconds=time.perf_counter() - started,
            workers=self.workers,
            morsels=len(morsels),
            morsel_rows=morsel_rows,
            scan_rows=plan.n_rows,
            parallel=True,
            sharded=plan.sharded,
            machine=session.machine,
            total_cycles=report.total_cycles,
            critical_path_cycles=critical,
            serial_cycles=serial_cycles,
            event_counts=event_counts(report),
            worker_stats=worker_stats,
        )
        return QueryResult(value=merged, report=report)
