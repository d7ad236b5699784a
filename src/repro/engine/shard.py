"""Shard worker processes over shared memory-mapped columns.

The thread pool tops out where the GIL does: NumPy kernels release it
in their hot loops, but short OLAP queries spend enough time in
interpreter glue that served throughput stalls at a few x over serial.
This module scales past that by running one **worker process per
core**, each mapping the *same* on-disk ``.npy`` column files the
fingerprinted dataset cache already maintains (``np.load(...,
mmap_mode="r")``): the OS page cache backs every worker with one
physical copy of the data, and no column bytes ever cross a pipe.

A shard is a *remote partial*, not a second executor:
:func:`remote_plan` swaps a compiled program's ``partial`` for one that
round-trips the morsel to a worker, and the engine's one
:class:`~repro.engine.pool.WorkerPool` drains it through the one
:class:`~repro.engine.pool.MorselBatch` cursor exactly as it drains a
thread run (its threads only wait on pipes here), under the same
:class:`~repro.engine.executor.MorselExecutor`:

* each morsel becomes one **task**, a pickled dict on the worker's
  stdin — plan envelope + compile-spec wire form + row range, never
  data, never code objects;
* workers compile the plan themselves (codegen is deterministic — the
  CI matrix pins golden sources across processes), run the program's
  ``partial`` over their row range, and pickle the raw partial state
  back on stdout (pickle keeps arrays, floats and big ints bit-exact).
  Pickle only ever crosses between a parent and the worker process it
  spawned;
* the returned partials land in the batch's **morsel-index** slots and
  go through the one :func:`~repro.engine.program.merge_partials` /
  ``finalize`` path, in the same order as a serial or thread run, so
  sharded answers are *byte-identical* to serial ones (float
  aggregation is not associative across regroupings; per-worker
  pre-merging would break that guarantee, so workers never merge).

Lifecycle: workers are pre-forked and handshaked before the first
query (``init`` loads the mmap'd dataset by fingerprint), crashed
workers are detected by pipe EOF and their in-flight morsel is retried
on a fresh worker (bounded retries; a *deterministic* task error is
never retried — it fails the batch like any raising partial), and
``stop()`` drains gracefully — ``shutdown`` op, stdin close, then
SIGTERM, then SIGKILL.

A reply carries the partial only. Only vectorized programs fan out,
and their kernels price nothing, so there is no cost report to ship:
the paper's clock is the instrumented backend's serial pass.
"""

from __future__ import annotations

import atexit
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path
from queue import SimpleQueue
from typing import Any, Dict, Tuple

from ..errors import ExecutionError, ReproError
from ..obs import MetricsRegistry, observe_span
from ..plan.serde import plan_to_wire
from .machine import MachineModel
from .program import CompiledQuery

#: A morsel whose worker died mid-flight is retried on a fresh worker
#: at most this many times before the query fails.
MAX_TASK_RETRIES = 2

#: Seconds granted to each stage of the graceful stop ladder
#: (shutdown-op drain, then SIGTERM, then SIGKILL).
_STOP_GRACE_SECONDS = 2.0


class ShardWorkerDied(ExecutionError):
    """The pipe to a shard worker hit EOF, broke mid-request or
    carried an unreadable frame."""


# -- worker handle -------------------------------------------------------


class ShardWorkerHandle:
    """One worker process plus its pickled-frame request channel."""

    def __init__(self, shard_id: int, proc: subprocess.Popen) -> None:
        self.shard_id = shard_id
        self.proc = proc
        self.pid = proc.pid
        self._lock = threading.Lock()

    @classmethod
    def spawn(cls, shard_id: int, config: Dict[str, Any]) -> "ShardWorkerHandle":
        """Fork one worker and complete the init/ready handshake."""
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else src_root + os.pathsep + existing
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.engine.shard_worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        handle = cls(shard_id, proc)
        try:
            ready = handle.request(
                {"op": "init", "shard_id": shard_id, **config}
            )
        except ShardWorkerDied as exc:
            ready = {"error": str(exc)}
        if ready.get("op") != "ready":
            proc.kill()
            proc.wait()
            handle.close_pipes()
            raise ReproError(
                f"shard worker {shard_id} failed to initialise: "
                f"{ready.get('error', ready)}"
            )
        return handle

    def alive(self) -> bool:
        return self.proc.poll() is None

    def send(self, message: Dict[str, Any]) -> None:
        try:
            pickle.dump(message, self.proc.stdin, pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise ShardWorkerDied(
                f"shard {self.shard_id} (pid {self.pid}) pipe closed "
                f"while sending: {exc}"
            ) from exc

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one op and block for its reply frame."""
        with self._lock:
            self.send(message)
            try:
                return pickle.load(self.proc.stdout)
            except EOFError as exc:
                raise ShardWorkerDied(
                    f"shard {self.shard_id} (pid {self.pid}) exited "
                    f"mid-request (exit code {self.proc.poll()})"
                ) from exc
            except Exception as exc:  # a broken pipe or a torn frame
                raise ShardWorkerDied(
                    f"shard {self.shard_id} (pid {self.pid}) sent an "
                    f"unreadable reply: {exc!r}"
                ) from exc

    def stop(self, grace: float = _STOP_GRACE_SECONDS) -> None:
        """Graceful stop ladder: shutdown op + stdin close, SIGTERM,
        SIGKILL. Both pipes are closed on every path, an already-exited
        worker's included."""
        try:
            if self.proc.poll() is None:
                self._wind_down(grace)
        finally:
            self.close_pipes()

    def _wind_down(self, grace: float) -> None:
        try:
            self.send({"op": "shutdown"})
            self.proc.stdin.close()
        except (ShardWorkerDied, OSError, ValueError):
            pass
        try:
            self.proc.wait(timeout=grace)
            return
        except subprocess.TimeoutExpired:
            pass
        self.proc.terminate()
        try:
            self.proc.wait(timeout=grace)
            return
        except subprocess.TimeoutExpired:
            pass
        self.proc.kill()
        self.proc.wait()

    def close_pipes(self) -> None:
        """Close the request and reply pipes (a close that fails to
        flush into a dead worker still releases the descriptor)."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except (OSError, ValueError):
                pass


# -- the shard group -----------------------------------------------------


def dataset_provenance(db) -> Tuple[str, str]:
    """``(fingerprint, cache_dir)`` of a database loaded through the
    dataset cache — what worker processes map the columns by."""
    fingerprint = getattr(db, "dataset_fingerprint", None)
    cache_dir = getattr(db, "dataset_cache_dir", None)
    if not fingerprint or not cache_dir:
        raise ReproError(
            "shard execution needs a database loaded through the "
            "dataset cache (repro.datagen.cache.load_dataset), so "
            "worker processes can map the same on-disk columns by "
            "fingerprint; this database carries no provenance"
        )
    return fingerprint, cache_dir


class ShardGroup:
    """A fixed set of pre-forked workers mapping one dataset — ``db``
    must carry dataset provenance (:func:`dataset_provenance`).

    Every worker is addressed by its shard id; dead workers are
    respawned on demand, so a crash costs one morsel retry, never the
    group.
    """

    def __init__(
        self,
        shards: int,
        db,
        *,
        machine: MachineModel,
        registry: MetricsRegistry,
    ) -> None:
        if shards < 1:
            raise ReproError("a shard group needs at least one shard")
        self.shards = shards
        self.fingerprint, self.cache_dir = dataset_provenance(db)
        self.machine = machine
        self.registry = registry
        self._handles: Dict[int, ShardWorkerHandle] = {}
        self._lock = threading.Lock()
        #: Shard ids not running a task: a worker serves one request
        #: at a time, so a task takes an id and puts it back.
        self._idle: "SimpleQueue[int]" = SimpleQueue()
        for shard_id in range(shards):
            self._idle.put(shard_id)
        self._stopped = False
        # Lifetime counters (mirrored into the registry).
        self.tasks = 0
        self.retries = 0
        self.restarts = 0
        self.crashes = 0
        atexit.register(self.stop)

    def _config(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "fingerprint": self.fingerprint,
            "cache_dir": self.cache_dir,
            "machine": asdict(self.machine),
        }

    def start(self) -> "ShardGroup":
        """Pre-fork every worker (idempotent)."""
        for shard_id in range(self.shards):
            self.worker(shard_id)
        return self

    def grow(self, shards: int) -> None:
        """Raise the shard count (never shrinks)."""
        with self._lock:
            for shard_id in range(self.shards, shards):
                self._idle.put(shard_id)
            self.shards = max(self.shards, shards)

    def worker(self, shard_id: int) -> ShardWorkerHandle:
        """The live handle for one shard, respawning a dead worker."""
        with self._lock:
            if self._stopped:
                raise ReproError("shard group is stopped")
            handle = self._handles.get(shard_id)
            if handle is not None and handle.alive():
                return handle
        if handle is not None:
            self.note_crash(shard_id)  # found dead outside a request
        fresh = ShardWorkerHandle.spawn(shard_id, self._config())
        with self._lock:
            if self._stopped:
                fresh.stop()
                raise ReproError("shard group is stopped")
            self._handles[shard_id] = fresh
        return fresh

    def note_crash(self, shard_id: int) -> None:
        """Record that ``shard_id``'s worker was found dead (its next
        :meth:`worker` call respawns it)."""
        with self._lock:
            self.crashes += 1
            self._count("shard_worker_crashes_total")
            self.restarts += 1
            self._count("shard_worker_restarts_total")
            handle = self._handles.pop(shard_id, None)
        if handle is not None:
            handle.stop(grace=0.1)

    def run_task(self, task: Dict[str, Any]) -> Dict[str, Any]:
        """Round-trip one task on an idle worker (blocking while all
        are busy); returns its ``result`` reply.

        A worker that dies with the task in flight is respawned and the
        task retried on it, at most :data:`MAX_TASK_RETRIES` times. A
        worker-*reported* error is deterministic — retrying reproduces
        it — and raises at once.
        """
        shard_id = self._idle.get()
        try:
            died = None
            for _ in range(MAX_TASK_RETRIES + 1):
                if died is not None:
                    with self._lock:
                        self.retries += 1
                    self._count("shard_retries_total")
                try:
                    reply = self.worker(shard_id).request(task)
                    break
                except ShardWorkerDied as exc:
                    self.note_crash(shard_id)
                    died = exc
            else:
                raise ExecutionError(
                    f"task failed {MAX_TASK_RETRIES + 1} times on crashed "
                    f"workers (last: {died})"
                ) from died
        finally:
            self._idle.put(shard_id)
        if reply.get("op") == "error":
            raise ExecutionError(
                f"shard {shard_id} worker: {reply.get('error', 'unknown')}"
            )
        with self._lock:
            self.tasks += 1
        self._count("shard_tasks_total", shard=str(shard_id))
        observe_span(
            "shard_task",
            float(reply.get("wall", 0.0)),
            self.registry,
            shard=str(shard_id),
        )
        return reply

    def kill_worker(self, shard_id: int) -> bool:
        """Hard-kill one worker (crash injection for tests/bench)."""
        with self._lock:
            handle = self._handles.get(shard_id)
        if handle is None or not handle.alive():
            return False
        handle.proc.kill()
        handle.proc.wait()
        return True

    def _count(self, name: str, **labels) -> None:
        # Caller holds self._lock or does not need to.
        self.registry.counter(name, **labels).inc()

    def snapshot(self) -> dict:
        """Stat source: group shape plus lifetime task counters."""
        with self._lock:
            alive = sum(
                1 for h in self._handles.values() if h.alive()
            )
            return {
                "shards": self.shards,
                "alive": alive,
                "tasks": self.tasks,
                "retries": self.retries,
                "restarts": self.restarts,
                "crashes": self.crashes,
            }

    def stop(self) -> None:
        """Gracefully stop every worker. Idempotent."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.stop()
        atexit.unregister(self.stop)


# -- the remote partial --------------------------------------------------


def remote_plan(group: ShardGroup, compiled: CompiledQuery):
    """``compiled``'s :class:`~repro.engine.program.ParallelPlan` with
    its ``partial`` run on ``group``'s workers (``None`` when the
    program declares no parallel plan and so runs serial in-process).

    Only ``partial`` changes: ``setup`` and ``finalize`` still run in
    the parent — setup state (``ctx``) is not shipped, each worker
    builds its own once per program — and the cursor,
    deadline/cancel stop and failure policy stay
    :class:`~repro.engine.pool.MorselBatch`'s.
    """
    if compiled.parallel is None:
        return None
    notes = compiled.notes

    @cache
    def template() -> Dict[str, Any]:
        """Built by the query's first morsel, so a scan under the
        fan-out floor never pays for it: the operator tree plus the
        whole compile configuration — encoding mode and measured-stats
        override included — so workers pick the same per-column
        code/value streams the parent priced; the spec is also the key
        of their program cache."""
        return {
            "op": "task",
            "plan": plan_to_wire(notes["logical"]),
            "spec": notes["spec"].to_wire(),
        }

    def partial(ctx, lo: int, hi: int) -> Dict[str, Any]:
        return group.run_task({**template(), "lo": lo, "hi": hi})["value"]

    return replace(compiled.parallel, partial=partial, sharded=True)
