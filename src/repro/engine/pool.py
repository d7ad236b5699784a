"""Persistent worker pool for the morsel executor.

Spawning and joining fresh ``threading.Thread``s on every ``execute()``
call is exactly the kind of per-query setup cost that dominates short
OLAP queries (Sirin & Ailamaki's micro-architectural OLAP analysis puts
the blame for poor utilization on per-query overheads, not kernel
work). The :class:`WorkerPool` amortizes that cost across queries the
way the plan cache amortizes compilation: it wraps one
``concurrent.futures.ThreadPoolExecutor``, created on the first
parallel batch, whose threads stay alive between batches.

* a worker carries no per-query state: a morsel is a plain
  ``partial(ctx, lo, hi)`` call, priced by no tracer;
* a batch carries a cooperative cancel flag: the first morsel failure
  stops the remaining lanes from pulling further morsels instead of
  letting them drain the cursor;
* ``shutdown()`` is idempotent, the pool is a context manager and
  restarts lazily; the executor joins its own threads at interpreter
  exit.

Determinism is unaffected by pooling: partial values are stored by
morsel *index* and merged in that order, never in thread-timing order,
so a pooled run gives the same answer as a serial run.

:class:`MorselBatch` is the only morsel cursor there is: claim order,
deadline/cancel stop and lowest-index failure are decided here for
both tiers. A sharded run is a batch whose ``plan.partial`` round-trips
each morsel to a worker process (:func:`repro.engine.shard.remote_plan`)
while its pool thread waits on the pipe. One batch runs at a time:
concurrent queries queue on the submit lock, never interleave morsels.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ExecutionError
from .cancellation import CancelToken

#: Name prefix of the pool's threads (``repro-pool_0``, ...).
THREAD_NAME_PREFIX = "repro-pool"


class MorselBatch:
    """One parallel run: a shared morsel cursor plus its result slots.

    Each lane calls :meth:`drain`; morsel indices are claimed under the
    batch lock, values land in index-addressed slots (order never
    depends on thread timing), and the first failure flips
    :attr:`cancelled` so other lanes stop claiming work.

    An optional :class:`~repro.engine.cancellation.CancelToken` adds a
    second stop condition at the same cursor: when the token's deadline
    passes (or it is cancelled explicitly), no further morsels are
    handed out and :meth:`raise_failure` raises
    :class:`~repro.errors.QueryTimeout` / ``QueryCancelled`` naming the
    elapsed time — a timed-out batch stops within one morsel's worth of
    work instead of draining the cursor.
    """

    def __init__(
        self,
        plan,
        ctx: Any,
        morsels: List[Tuple[int, int]],
        label: str,
        workers: int,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        if not morsels:
            raise ExecutionError("a morsel batch needs at least one morsel")
        self.plan = plan
        self.ctx = ctx
        self.morsels = morsels
        self.label = label
        #: Lanes (concurrent :meth:`drain` calls) this batch runs on.
        self.workers = workers
        self.cancel = cancel
        self.values: List[Optional[Dict[str, Any]]] = [None] * len(morsels)
        self.wall_by_worker: Dict[int, float] = {}
        self.errors: List[Tuple[int, BaseException]] = []
        self.cancelled = False
        #: Set when the cancel token stopped the cursor (the error to
        #: re-raise from :meth:`raise_failure`).
        self.stop_error: Optional[ExecutionError] = None
        self._next = 0
        self._lock = threading.Lock()

    def _claim(self) -> Optional[int]:
        with self._lock:
            if self.cancelled or self._next >= len(self.morsels):
                return None
            if self.cancel is not None and self.cancel.stop_requested():
                self.cancelled = True
                self.stop_error = self.cancel.stop_error(
                    self.label, self.values
                )
                return None
            index = self._next
            self._next += 1
            return index

    def drain(self, worker_id: int) -> None:
        """Run morsels until the cursor is exhausted or the batch is
        cancelled. Records the lane's busy seconds."""
        busy = 0.0
        while (index := self._claim()) is not None:
            begin = time.perf_counter()
            lo, hi = self.morsels[index]
            try:
                self.values[index] = self.plan.partial(self.ctx, lo, hi)
            except BaseException as exc:  # re-raised by raise_failure()
                with self._lock:
                    self.errors.append((index, exc))
                    self.cancelled = True
                break
            finally:
                busy += time.perf_counter() - begin
        if busy > 0.0:
            with self._lock:
                self.wall_by_worker[worker_id] = (
                    self.wall_by_worker.get(worker_id, 0.0) + busy
                )

    def raise_failure(self) -> None:
        """Re-raise the first morsel failure (naming the morsel), or the
        deadline/cancellation stop recorded at the cursor."""
        if not self.errors:
            if self.stop_error is not None:
                raise self.stop_error
            return
        index, exc = min(self.errors, key=lambda pair: pair[0])
        lo, hi = self.morsels[index]
        raise ExecutionError(
            f"morsel {index} (rows [{lo}, {hi})) of {self.label} failed: "
            f"{exc!r}"
        ) from exc

    def result(self) -> Tuple[List[Dict[str, Any]], Dict[int, float]]:
        """Completed values in morsel order, plus busy seconds per
        lane."""
        self.raise_failure()
        return (
            [v for v in self.values if v is not None],
            dict(self.wall_by_worker),
        )


class WorkerPool:
    """Morsel batches drained on a lazily created thread-pool executor.

    One batch runs at a time (the executor submits whole queries). The
    pool grows on demand: a batch asking for more lanes than the
    executor has threads swaps it for a wider one, so one engine-owned
    pool serves any ``workers=`` override.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ExecutionError("worker pool needs at least one worker")
        self.workers = workers
        #: Guards the executor reference and the telemetry below.
        self._lock = threading.Lock()
        self._submit_lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._batches = 0
        self._batch_morsels = 0
        self._busy_seconds = 0.0
        self._capacity_seconds = 0.0

    # -- lifecycle -------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._executor is not None

    def _ensure(self, workers: Optional[int]) -> Optional[ThreadPoolExecutor]:
        """Create the executor, or swap it for a wider one; returns the
        executor a swap retired (the caller shuts it down outside the
        lock). Caller holds ``_lock``."""
        retired = None
        if workers is not None and workers > self.workers:
            self.workers = workers
            retired, self._executor = self._executor, None
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                self.workers, thread_name_prefix=THREAD_NAME_PREFIX
            )
        return retired

    def ensure_started(self, workers: Optional[int] = None) -> None:
        """Create (or widen) the executor; safe to call repeatedly,
        including concurrently with :meth:`shutdown`."""
        with self._lock:
            retired = self._ensure(workers)
        if retired is not None:
            retired.shutdown()

    def shutdown(self) -> None:
        """Join the executor's threads. Idempotent; the pool restarts
        lazily if used again afterwards."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- batches ---------------------------------------------------------

    def run_batch(
        self, batch: MorselBatch
    ) -> Tuple[List[Dict[str, Any]], Dict[int, float]]:
        """Drain ``batch`` on ``batch.workers`` lanes and return its
        morsel-ordered values and busy seconds per lane."""
        with self._submit_lock:
            begin = time.perf_counter()
            # Submitting under _lock keeps a concurrent shutdown from
            # closing the executor between its creation and the
            # submits; holding the batch lock makes every lane wait
            # until all are queued, so a fresh executor starts one
            # thread per lane instead of reusing a lane that already
            # drained the cursor.
            with self._lock:
                retired = self._ensure(batch.workers)
                with batch._lock:
                    lanes = [
                        self._executor.submit(batch.drain, lane)
                        for lane in range(batch.workers)
                    ]
            if retired is not None:
                retired.shutdown()
            for lane in lanes:
                lane.result()
            elapsed = time.perf_counter() - begin
            with self._lock:
                self._batches += 1
                self._batch_morsels += sum(
                    1 for v in batch.values if v is not None
                )
                self._busy_seconds += sum(batch.wall_by_worker.values())
                self._capacity_seconds += elapsed * batch.workers
        return batch.result()

    def snapshot(self) -> dict:
        """Lifetime utilization counters (a registry stat source).

        ``utilization`` is busy worker-seconds over offered capacity
        (batch wall time times participating workers): 1.0 means every
        participating worker was draining morsels for the whole of
        every batch; the gap is morsel-claim contention plus cursor
        exhaustion tail.
        """
        with self._lock:
            capacity = self._capacity_seconds
            return {
                "workers": self.workers,
                "threads": self.workers if self.started else 0,
                "batches": self._batches,
                "morsels": self._batch_morsels,
                "busy_seconds": self._busy_seconds,
                "capacity_seconds": capacity,
                "utilization": (
                    self._busy_seconds / capacity if capacity else 0.0
                ),
            }
