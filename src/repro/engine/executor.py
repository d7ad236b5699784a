"""Morsel-driven parallel execution of compiled query programs.

The executor partitions a program's base-table scan into row-range
*morsels* (Leis et al., "Morsel-Driven Parallelism") and drains them on
the persistent thread pool (:mod:`repro.engine.pool`): the NumPy
kernels release the GIL in the hot loops, so scan morsels genuinely
overlap on multicore hosts, and a plan whose ``partial`` is remote
(:func:`repro.engine.shard.remote_plan`) runs its morsels in shard
worker processes while the same threads wait on their pipes.
Everything around the pool — fan-out floor, setup and finalize, the
deterministic merge (:func:`repro.engine.program.merge_partials`) and
the run metrics — happens here, once, so a 4-worker or 4-shard run
gives the same answer as a serial run and is measured the same way.

Only vectorized programs declare a parallel plan, and their kernels
emit no priced events: simulated cycles come from the instrumented
backend's one serial pass, and parallel time is wall time.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional, Tuple

from ..errors import ExecutionError
from ..obs import MetricsRegistry, span
from .cancellation import CancelToken
from .costing import CostReport
from .metrics import RunMetrics, WorkerStats, event_counts
from .pool import MorselBatch, WorkerPool
from .program import CompiledQuery, QueryResult, merge_partials
from .session import Session

#: Morsels smaller than this lose more to per-morsel bookkeeping than
#: they gain in balance; scans shorter than one minimum morsel run serial.
MIN_MORSEL_ROWS = 4096

#: Scan size below which a partitionable program runs serial: the
#: vectorized kernels chew through hundreds of millions of rows per
#: second, so dispatching morsels to workers only pays off on large
#: scans. ``ExecutionKnobs.min_parallel_rows`` overrides it; a pinned
#: ``ExecutionKnobs.morsel_rows`` forces the parallel path anyway.
MIN_PARALLEL_ROWS = 1 << 18

#: Target morsels per worker when the session does not pin a size —
#: enough slack for the shared cursor to balance skewed morsels.
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
            session = Session()
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
            # The session knob — set explicitly or seeded from the
            # feedback store's measured serial-vs-parallel crossover —
            # overrides the fan-out floor, and an explicitly pinned
            # morsel size overrides both.
            floor = session.knobs.min_parallel_rows
            if floor is None:
                floor = MIN_PARALLEL_ROWS
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
        ctx = plan.setup() if plan.setup is not None else None
        morsel_rows = pick_morsel_rows(
            plan.n_rows, self.workers, session.knobs.morsel_rows
        )
        morsels = split_morsels(plan.n_rows, morsel_rows)
        with self._span("morsel_execute"):
            values, wall_by_worker = self.pool.run_batch(
                MorselBatch(plan, ctx, morsels, label, self.workers, cancel)
            )

        with self._span("merge"):
            merged = merge_partials(values)
            if plan.finalize is not None:
                merged = plan.finalize(merged, ctx)

        report = CostReport(machine=session.machine)
        report.metrics = RunMetrics(
            wall_seconds=time.perf_counter() - started,
            workers=self.workers,
            morsels=len(morsels),
            morsel_rows=morsel_rows,
            scan_rows=plan.n_rows,
            parallel=True,
            sharded=plan.sharded,
            machine=session.machine,
            worker_stats=[
                WorkerStats(worker_id, wall_by_worker.get(worker_id, 0.0))
                for worker_id in range(self.workers)
            ],
        )
        return QueryResult(value=merged, report=report)
