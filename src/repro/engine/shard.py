"""Multi-process shard runner over shared memory-mapped columns.

The thread-pool runner tops out where the GIL does: NumPy kernels
release it in their hot loops, but short OLAP queries spend enough time
in interpreter glue that served throughput stalls at a few x over
serial. This module scales past that by running one **worker process
per core**, each mapping the *same* on-disk ``.npy`` column files the
fingerprinted dataset cache already maintains (``np.load(...,
mmap_mode="r")``): the OS page cache backs every worker with one
physical copy of the data, and no column bytes ever cross a pipe.

There is one scatter/merge path —
:class:`~repro.engine.executor.MorselExecutor` splits the scan, costs
setup/finalize, merges, schedules and measures — and this module is the
second of its two *morsel runners* (:class:`ShardRunner`; the first is
:class:`~repro.engine.pool.WorkerPool`):

* each morsel becomes one **task** on the pickle-free line-JSON
  protocol — plan envelope + compile-spec wire form + row range +
  run-time knobs, never data, never pickled code;
* workers compile the plan themselves (codegen is deterministic — the
  CI matrix pins golden sources across processes), run the program's
  ``partial`` over their row range, and ship the raw partial state
  back (arrays as dtype-tagged base64 of their exact bytes);
* the runner hands the decoded partials back **in morsel-index order**
  and the executor pushes them through the one
  :func:`~repro.engine.program.merge_partials` / ``finalize`` path, in
  the same order as a serial or thread run, so sharded answers are
  *byte-identical* to serial ones (float aggregation is not associative
  across regroupings; per-worker pre-merging would break that
  guarantee, so workers never merge).

Lifecycle: workers are pre-forked and handshaked before the first
query (``init`` loads the mmap'd dataset by fingerprint), crashed
workers are detected by pipe EOF and their in-flight morsel is retried
on a fresh worker (bounded retries; a *deterministic* task error is
never retried), and ``stop()`` drains gracefully — ``shutdown`` op,
stdin close, then SIGTERM, then SIGKILL.

Measurement is not forked either: a reply carries the morsel's
:class:`~repro.engine.costing.CostReport` — its priced event stream —
so a sharded run's report is the same object a thread run builds, and
:func:`repro.adaptive.feedback.observation_from_run` reads both.
"""

from __future__ import annotations

import atexit
import base64
import json
import os
import subprocess
import sys
import threading
from collections import deque
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError, ReproError
from ..obs import MetricsRegistry, observe_span
from ..plan.serde import plan_to_wire
from . import events as event_types
from .cancellation import CancelToken
from .costing import CostReport
from .machine import MachineModel
from .program import CompiledQuery

#: A morsel whose worker died mid-flight is retried on a fresh worker
#: at most this many times before the query fails.
MAX_TASK_RETRIES = 2

#: Seconds granted to each stage of the graceful stop ladder
#: (shutdown-op drain, then SIGTERM, then SIGKILL).
_STOP_GRACE_SECONDS = 2.0


class ShardWorkerDied(ExecutionError):
    """The pipe to a shard worker hit EOF or broke mid-request."""


# -- partial-value codec -------------------------------------------------
#
# Partial states are small (per-morsel aggregate scalars or compact
# key/agg arrays), but they must survive the pipe *exactly*: the merge
# is float arithmetic, so a decimal round-trip would break the
# byte-identical guarantee. Arrays and NumPy scalars ship as base64 of
# their raw bytes with a dtype tag; Python ints as decimal strings
# (arbitrary precision); floats as C99 hex literals (exact).


def encode_partial(value: Dict[str, Any]) -> Dict[str, Any]:
    """One partial state as a JSON-safe, bit-exact wire object."""
    out: Dict[str, Any] = {}
    for name, item in value.items():
        if isinstance(item, np.ndarray):
            arr = np.ascontiguousarray(item)
            out[name] = {
                "nd": [arr.dtype.str, list(arr.shape)],
                "b64": base64.b64encode(arr.tobytes()).decode("ascii"),
            }
        elif isinstance(item, np.generic):
            out[name] = {
                "ns": item.dtype.str,
                "b64": base64.b64encode(item.tobytes()).decode("ascii"),
            }
        elif isinstance(item, bool):
            out[name] = {"j": item}
        elif isinstance(item, int):
            out[name] = {"i": str(item)}
        elif isinstance(item, float):
            out[name] = {"f": item.hex()}
        else:
            out[name] = {"j": item}
    return out


def decode_partial(wire: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`encode_partial`."""
    out: Dict[str, Any] = {}
    for name, item in wire.items():
        if "nd" in item:
            dtype, shape = item["nd"]
            out[name] = np.frombuffer(
                base64.b64decode(item["b64"]), dtype=np.dtype(dtype)
            ).reshape(shape)
        elif "ns" in item:
            out[name] = np.frombuffer(
                base64.b64decode(item["b64"]), dtype=np.dtype(item["ns"])
            )[0]
        elif "i" in item:
            out[name] = int(item["i"])
        elif "f" in item:
            out[name] = float.fromhex(item["f"])
        else:
            out[name] = item["j"]
    return out


# -- cost-report codec ---------------------------------------------------
#
# A report accumulates only through ``CostReport.add``, so its priced
# event stream *is* the report: events are flat frozen dataclasses of
# ints/floats/strs/bools and JSON floats round-trip exactly, so
# replaying the stream through ``add`` on the parent rebuilds
# ``total_cycles`` / ``by_kernel`` / ``by_kind`` bit for bit.


def report_to_wire(report: CostReport) -> List[list]:
    """A morsel's cost report as ``[kernel, kind, *field values,
    cycles]`` rows in dataclass field order (empty on the vectorized
    backend, which emits no events)."""
    return [
        [kernel, type(event).__name__, *event.__dict__.values(), cycles]
        for kernel, event, cycles in report.events
    ]


def report_from_wire(machine: MachineModel, wire: List[list]) -> CostReport:
    """Inverse of :func:`report_to_wire`."""
    report = CostReport(machine=machine)
    for kernel, kind, *fields, cycles in wire:
        report.add(kernel, getattr(event_types, kind)(*fields), cycles)
    return report


# -- worker handle -------------------------------------------------------


class ShardWorkerHandle:
    """One worker process plus its line-JSON request channel."""

    def __init__(
        self, shard_id: int, proc: subprocess.Popen, pid: int
    ) -> None:
        self.shard_id = shard_id
        self.proc = proc
        self.pid = pid
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
        # Pin hash randomisation unless the parent already did: the
        # instrumented cost model has mild str-hash-order sensitivity
        # (Q5's string-keyed joins), and a retried morsel must reprice
        # identically on the respawned worker.
        env.setdefault("PYTHONHASHSEED", "0")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.engine.shard_worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
            env=env,
        )
        handle = cls(shard_id, proc, proc.pid)
        try:
            ready = handle.request(
                {"op": "init", "shard_id": shard_id, **config}
            )
        except ShardWorkerDied as exc:
            proc.kill()
            raise ReproError(
                f"shard worker {shard_id} failed to initialise: {exc}"
            ) from exc
        if ready.get("op") != "ready":
            proc.kill()
            raise ReproError(
                f"shard worker {shard_id} failed to initialise: "
                f"{ready.get('error', ready)}"
            )
        return handle

    def alive(self) -> bool:
        return self.proc.poll() is None

    def send(self, message: Dict[str, Any]) -> None:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise ShardWorkerDied(
                f"shard {self.shard_id} (pid {self.pid}) pipe closed "
                f"while sending: {exc}"
            ) from exc

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one op and block for its reply line."""
        with self._lock:
            self.send(message)
            try:
                line = self.proc.stdout.readline()
            except (OSError, ValueError) as exc:
                raise ShardWorkerDied(
                    f"shard {self.shard_id} (pid {self.pid}) pipe broke "
                    f"mid-reply: {exc}"
                ) from exc
            if not line:
                raise ShardWorkerDied(
                    f"shard {self.shard_id} (pid {self.pid}) exited "
                    f"mid-request (exit code {self.proc.poll()})"
                )
            try:
                return json.loads(line)
            except ValueError as exc:
                raise ShardWorkerDied(
                    f"shard {self.shard_id} (pid {self.pid}) spoke "
                    f"garbage: {line[:200]!r}"
                ) from exc

    def stop(self, grace: float = _STOP_GRACE_SECONDS) -> None:
        """Graceful stop ladder: shutdown op + stdin close, SIGTERM,
        SIGKILL."""
        if self.proc.poll() is not None:
            return
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


# -- the shard group -----------------------------------------------------


class ShardGroup:
    """A fixed set of pre-forked workers mapping one dataset.

    Every worker is addressed by its shard id; dead workers are
    respawned on demand, so a crash costs one morsel retry, never the
    group.
    """

    def __init__(
        self,
        shards: int,
        *,
        fingerprint: str,
        cache_dir: str,
        machine: MachineModel,
        tile: int,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if shards < 1:
            raise ReproError("a shard group needs at least one shard")
        self.shards = shards
        self.fingerprint = fingerprint
        self.cache_dir = cache_dir
        self.machine = machine
        self.tile = tile
        self.registry = registry
        self._handles: Dict[int, ShardWorkerHandle] = {}
        self._lock = threading.Lock()
        self._stopped = False
        # Lifetime counters (mirrored into the registry when present).
        self.tasks = 0
        self.retries = 0
        self.restarts = 0
        self.crashes = 0
        atexit.register(self.stop)

    @classmethod
    def for_engine(cls, engine, shards: int) -> "ShardGroup":
        """Build a group from an engine whose database carries dataset
        provenance (i.e. was loaded through the dataset cache)."""
        fingerprint = getattr(engine.db, "dataset_fingerprint", None)
        cache_dir = getattr(engine.db, "dataset_cache_dir", None)
        if not fingerprint or not cache_dir:
            raise ReproError(
                "shard execution needs a database loaded through the "
                "dataset cache (repro.datagen.cache.load_dataset), so "
                "worker processes can map the same on-disk columns by "
                "fingerprint; this database carries no provenance"
            )
        return cls(
            shards,
            fingerprint=fingerprint,
            cache_dir=cache_dir,
            machine=engine.machine,
            tile=engine.tile,
            registry=engine.registry,
        )

    def _config(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "fingerprint": self.fingerprint,
            "cache_dir": self.cache_dir,
            "machine": asdict(self.machine),
            "tile": self.tile,
        }

    def start(self) -> "ShardGroup":
        """Pre-fork every worker (idempotent)."""
        for shard_id in range(self.shards):
            self.worker(shard_id)
        return self

    def grow(self, shards: int) -> None:
        """Raise the shard count (never shrinks)."""
        with self._lock:
            if shards > self.shards:
                self.shards = shards

    def worker(self, shard_id: int) -> ShardWorkerHandle:
        """The live handle for one shard, respawning a dead worker."""
        with self._lock:
            if self._stopped:
                raise ReproError("shard group is stopped")
            handle = self._handles.get(shard_id)
            if handle is not None and handle.alive():
                return handle
            if handle is not None:
                # Found dead outside a request: still a crash.
                self.crashes += 1
                self._count("shard_worker_crashes_total")
                self.restarts += 1
                self._count("shard_worker_restarts_total")
        fresh = ShardWorkerHandle.spawn(shard_id, self._config())
        with self._lock:
            if self._stopped:
                fresh.stop()
                raise ReproError("shard group is stopped")
            self._handles[shard_id] = fresh
        return fresh

    def note_crash(self, shard_id: int) -> None:
        """Record that a request to ``shard_id`` found the worker dead
        (its next :meth:`worker` call respawns it)."""
        with self._lock:
            self.crashes += 1
            self._count("shard_worker_crashes_total")
            handle = self._handles.pop(shard_id, None)
        if handle is not None:
            handle.stop(grace=0.1)
        with self._lock:
            self.restarts += 1
            self._count("shard_worker_restarts_total")

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
        if self.registry is not None:
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
        try:
            atexit.unregister(self.stop)
        except Exception:  # pragma: no cover - interpreter exit
            pass


# -- the runner ----------------------------------------------------------


class _ShardRun:
    """One sharded query: a morsel cursor scattered over the group.

    One channel thread per lane claims morsel indices, round-trips
    tasks to its worker, and records results by index (order never
    depends on timing — the same determinism contract as
    :class:`~repro.engine.pool.MorselBatch`). A worker death re-enqueues
    the in-flight morsel (bounded by :data:`MAX_TASK_RETRIES`) on the
    respawned worker; a *deterministic* task error cancels the run.
    """

    def __init__(
        self,
        group: ShardGroup,
        task_template: Dict[str, Any],
        morsels: List[Tuple[int, int]],
        label: str,
        cancel: Optional[CancelToken],
    ) -> None:
        self.group = group
        self.template = task_template
        self.morsels = morsels
        self.label = label
        self.cancel = cancel
        self.replies: List[Optional[Dict[str, Any]]] = [None] * len(morsels)
        self.wall_by_shard: Dict[int, float] = {}
        self.errors: List[Tuple[int, str]] = []
        self.stop_error: Optional[ExecutionError] = None
        self.cancelled = False
        self._pending: deque = deque(range(len(morsels)))
        self._retries: Dict[int, int] = {}
        self._lock = threading.Lock()

    # -- cursor ----------------------------------------------------------

    def _claim(self) -> Optional[int]:
        with self._lock:
            if self.cancelled or not self._pending:
                return None
            if self.cancel is not None and self.cancel.stop_requested():
                self.cancelled = True
                self.stop_error = self.cancel.stop_error(
                    self.label, self.replies
                )
                return None
            return self._pending.popleft()

    def _record(self, index: int, shard_id: int, reply: Dict[str, Any]):
        wall = float(reply.get("wall", 0.0))
        with self._lock:
            self.replies[index] = reply
            self.wall_by_shard[shard_id] = (
                self.wall_by_shard.get(shard_id, 0.0) + wall
            )
            self.group.tasks += 1
        self.group._count("shard_tasks_total", shard=str(shard_id))
        if self.group.registry is not None:
            observe_span(
                "shard_task", wall, self.group.registry, shard=str(shard_id)
            )

    def _fail(self, index: int, message: str) -> None:
        with self._lock:
            self.errors.append((index, message))
            self.cancelled = True

    def _retry(self, index: int) -> bool:
        """Re-enqueue a morsel whose worker died; False past the cap."""
        with self._lock:
            count = self._retries.get(index, 0) + 1
            self._retries[index] = count
            if count > MAX_TASK_RETRIES:
                return False
            self._pending.append(index)
            self.group.retries += 1
        self.group._count("shard_retries_total")
        return True

    # -- channels --------------------------------------------------------

    def _channel(self, shard_id: int) -> None:
        while True:
            index = self._claim()
            if index is None:
                return
            lo, hi = self.morsels[index]
            task = {**self.template, "op": "task", "lo": lo, "hi": hi}
            try:
                handle = self.group.worker(shard_id)
            except ReproError as exc:
                self._fail(index, f"shard {shard_id} unspawnable: {exc}")
                return
            try:
                reply = handle.request(task)
            except ShardWorkerDied as exc:
                self.group.note_crash(shard_id)
                if not self._retry(index):
                    self._fail(
                        index,
                        f"morsel failed {MAX_TASK_RETRIES + 1} times on "
                        f"crashed workers (last: {exc})",
                    )
                    return
                continue
            if reply.get("op") == "error":
                # Deterministic failure: retrying reproduces it.
                self._fail(index, str(reply.get("error", "unknown")))
                return
            self._record(index, shard_id, reply)

    def execute(self, lanes: int) -> None:
        threads = [
            threading.Thread(
                target=self._channel,
                args=(shard_id,),
                name=f"repro-shard-{shard_id}",
                daemon=True,
            )
            for shard_id in range(lanes)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def raise_failure(self) -> None:
        if not self.errors:
            if self.stop_error is not None:
                raise self.stop_error
            return
        index, message = min(self.errors, key=lambda pair: pair[0])
        lo, hi = self.morsels[index]
        raise ExecutionError(
            f"morsel {index} (rows [{lo}, {hi})) of {self.label} failed "
            f"on a shard worker: {message}"
        )


class ShardRunner:
    """The shard tier as a morsel runner: one compiled program's
    morsels, scattered over a :class:`ShardGroup`.

    What the workers need to compile the same program — the operator
    tree and the :class:`~repro.engine.plan_cache.CompileSpec` it was
    compiled under — is read off the compiled program's ``notes``.
    """

    #: Morsels run in worker processes (``RunMetrics.sharded``); a
    #: single lane still crosses the pipe rather than running serial.
    sharded = True

    def __init__(self, group: ShardGroup, compiled: CompiledQuery) -> None:
        self.group = group
        self.compiled = compiled

    def run(
        self,
        session,
        plan,
        ctx: Any,
        morsels: List[Tuple[int, int]],
        label: str,
        lanes: int,
        cancel: Optional[CancelToken] = None,
    ) -> Tuple[List[Dict[str, Any]], List[CostReport], Dict[int, float]]:
        """Setup state (``ctx``) is not shipped: each worker builds
        its own once per program, uncosted — the executor accounts the
        serial phases itself."""
        notes = self.compiled.notes
        task = {
            "plan": plan_to_wire(notes["logical"]),
            # The whole compile configuration (encoding mode and the
            # measured-stats override included), so workers pick the
            # same per-column code/value streams the parent priced;
            # it is also the key of their program cache.
            "spec": notes["spec"].to_wire(),
            "ht_prefetch": bool(session.knobs.ht_prefetch),
        }
        run = _ShardRun(self.group, task, morsels, label, cancel)
        run.execute(lanes)
        run.raise_failure()
        return (
            [decode_partial(r["value"]) for r in run.replies],
            [
                report_from_wire(session.machine, r["report"])
                for r in run.replies
            ],
            run.wall_by_shard,
        )
