"""Persistent worker pool for the morsel executor.

Spawning and joining fresh ``threading.Thread``s on every ``execute()``
call is exactly the kind of per-query setup cost that dominates short
OLAP queries (Sirin & Ailamaki's micro-architectural OLAP analysis puts
the blame for poor utilization on per-query overheads, not kernel
work). The :class:`WorkerPool` amortizes that cost across queries the
way the plan cache amortizes compilation:

* worker threads start lazily on the first parallel batch and then
  block on a condition variable until the next batch arrives;
* a worker carries no per-query state: a morsel is a plain
  ``partial(ctx, lo, hi)`` call, priced by no tracer;
* a batch carries a cooperative cancel flag: the first morsel failure
  stops the remaining workers from pulling further morsels instead of
  letting them drain the cursor;
* ``shutdown()`` is idempotent, the pool is a context manager, and a
  lazily-registered ``atexit`` hook tears the threads down at
  interpreter exit.

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

import atexit
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ExecutionError
from .cancellation import CancelToken


class MorselBatch:
    """One parallel run: a shared morsel cursor plus its result slots.

    Workers call :meth:`drain`; morsel indices are claimed under the
    batch lock, values land in index-addressed slots (order never
    depends on thread timing), and
    the first failure flips :attr:`cancelled` so other workers stop
    claiming work.

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
        #: Worker ids >= this do not participate (lets one pool serve
        #: requests for fewer workers than it has threads).
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
        self._in_flight = 0
        self._lock = threading.Lock()
        self._done = threading.Event()

    # -- claiming --------------------------------------------------------

    def claimable(self) -> bool:
        """Whether a worker could still pull a morsel (racy, advisory)."""
        return not self.cancelled and self._next < len(self.morsels)

    def _claim(self) -> Optional[int]:
        with self._lock:
            if self.cancelled or self._next >= len(self.morsels):
                return None
            if self.cancel is not None and self.cancel.stop_requested():
                self.cancelled = True
                self.stop_error = self.cancel.stop_error(
                    self.label, self.values
                )
                if self._in_flight == 0:
                    self._done.set()
                return None
            index = self._next
            self._next += 1
            self._in_flight += 1
            return index

    def _finish(self, failed: Optional[Tuple[int, BaseException]]) -> None:
        with self._lock:
            if failed is not None:
                self.errors.append(failed)
                self.cancelled = True
            self._in_flight -= 1
            exhausted = self.cancelled or self._next >= len(self.morsels)
            if exhausted and self._in_flight == 0:
                self._done.set()

    # -- running ---------------------------------------------------------

    def drain(self, worker_id: int) -> None:
        """Run morsels until the cursor is exhausted or the batch is
        cancelled. Records per-worker busy seconds."""
        busy = 0.0
        while True:
            index = self._claim()
            if index is None:
                break
            begin = time.perf_counter()
            lo, hi = self.morsels[index]
            failed = None
            try:
                self.values[index] = self.plan.partial(self.ctx, lo, hi)
            except BaseException as exc:  # re-raised by raise_failure()
                failed = (index, exc)
            busy += time.perf_counter() - begin
            self._finish(failed)
            if failed is not None:
                break
        if busy > 0.0:
            with self._lock:
                self.wall_by_worker[worker_id] = (
                    self.wall_by_worker.get(worker_id, 0.0) + busy
                )

    def wait(self) -> None:
        self._done.wait()

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
        worker."""
        self.raise_failure()
        return (
            [v for v in self.values if v is not None],
            dict(self.wall_by_worker),
        )


class WorkerPool:
    """Lazily-started persistent threads draining morsel batches.

    One batch runs at a time (the executor submits whole queries);
    worker threads park on a condition variable between batches. The
    pool grows on demand when a batch requests more workers than it has
    threads, so one engine-owned pool serves any ``workers=`` override.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ExecutionError("worker pool needs at least one worker")
        self.workers = workers
        self._cond = threading.Condition()
        self._submit_lock = threading.Lock()
        # Serialises ensure_started against shutdown as whole
        # operations. Without it, an ensure racing a shutdown could (a)
        # flip _closed back to False between shutdown's notify and its
        # join, leaving workers parked forever while join blocks on
        # them, and (b) re-register the atexit hook in the window where
        # shutdown is about to unregister it, losing the registration.
        # Held only around lifecycle transitions, never during a batch,
        # and workers only ever take _cond — no ordering cycle.
        self._lifecycle = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._batch: Optional[MorselBatch] = None
        self._closed = False
        self._atexit_registered = False
        # Lifetime telemetry (read by snapshot(), updated under _cond).
        self._batches = 0
        self._batch_morsels = 0
        self._busy_seconds = 0.0
        self._capacity_seconds = 0.0

    # -- lifecycle -------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._threads)

    def ensure_started(self, workers: Optional[int] = None) -> None:
        """Start (or grow) the worker threads; safe to call repeatedly,
        including concurrently with :meth:`shutdown` (the lifecycle lock
        makes each a whole-operation critical section)."""
        with self._lifecycle:
            with self._cond:
                self._closed = False
                if workers is not None and workers > self.workers:
                    self.workers = workers
                while len(self._threads) < self.workers:
                    worker_id = len(self._threads)
                    thread = threading.Thread(
                        target=self._worker_loop,
                        args=(worker_id,),
                        name=f"repro-pool-{worker_id}",
                        daemon=True,
                    )
                    self._threads.append(thread)
                    thread.start()
                if self._threads and not self._atexit_registered:
                    atexit.register(self.shutdown)
                    self._atexit_registered = True

    def shutdown(self) -> None:
        """Stop and join all workers. Idempotent; the pool restarts
        lazily if used again afterwards."""
        with self._lifecycle:
            with self._cond:
                self._closed = True
                threads = list(self._threads)
                self._cond.notify_all()
            # Join outside _cond (workers need it to observe _closed)
            # but inside the lifecycle lock, so a concurrent
            # ensure_started cannot flip _closed back and strand this
            # join on workers that will never exit.
            for thread in threads:
                thread.join()
            with self._cond:
                self._threads = [t for t in self._threads if t.is_alive()]
                if self._atexit_registered and not self._threads:
                    self._atexit_registered = False
                    atexit.unregister(self.shutdown)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- batches ---------------------------------------------------------

    def run_batch(
        self, batch: MorselBatch
    ) -> Tuple[List[Dict[str, Any]], Dict[int, float]]:
        """Drain ``batch`` on the pool's threads and return its
        morsel-ordered values and busy seconds per worker."""
        self.ensure_started(batch.workers)
        with self._submit_lock:
            begin = time.perf_counter()
            with self._cond:
                self._batch = batch
                self._cond.notify_all()
            batch.wait()
            elapsed = time.perf_counter() - begin
            with self._cond:
                self._batch = None
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
        with self._cond:
            capacity = self._capacity_seconds
            return {
                "workers": self.workers,
                "threads": len(self._threads),
                "batches": self._batches,
                "morsels": self._batch_morsels,
                "busy_seconds": self._busy_seconds,
                "capacity_seconds": capacity,
                "utilization": (
                    self._busy_seconds / capacity if capacity else 0.0
                ),
            }

    # -- workers ---------------------------------------------------------

    def _worker_loop(self, worker_id: int) -> None:
        while True:
            with self._cond:
                while not self._closed and not self._has_work(worker_id):
                    self._cond.wait()
                if self._closed:
                    return
                batch = self._batch
            batch.drain(worker_id)

    def _has_work(self, worker_id: int) -> bool:
        batch = self._batch
        return (
            batch is not None
            and worker_id < batch.workers
            and batch.claimable()
        )
