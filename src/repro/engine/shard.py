"""Multi-process shard executor over shared memory-mapped columns.

The thread-pool executor tops out where the GIL does: NumPy kernels
release it in their hot loops, but short OLAP queries spend enough time
in interpreter glue that served throughput stalls at a few x over
serial. This module scales past that by running one **worker process
per core**, each mapping the *same* on-disk ``.npy`` column files the
fingerprinted dataset cache already maintains (``np.load(...,
mmap_mode="r")``): the OS page cache backs every worker with one
physical copy of the data, and no column bytes ever cross a pipe.

The scatter/gather design follows the morsel-driven model (Leis et
al.) exactly as the thread executor does:

* the parent splits the scan into morsels with the *same* splitter the
  thread path uses;
* each morsel becomes one **task** on the pickle-free line-JSON
  protocol — dataset fingerprint + compiled-spec wire form + row range
  + knobs + measured-stats override, never data, never pickled code;
* workers compile the spec themselves (codegen is deterministic — the
  CI matrix pins golden sources across processes), run the program's
  ``partial`` over their row range, and ship the raw partial state
  back (arrays as dtype-tagged base64 of their exact bytes);
* the parent decodes the per-morsel partials **in morsel-index order**
  and pushes them through the existing
  :func:`~repro.engine.program.merge_partials` / ``finalize`` path —
  one merge, in the same order as a serial or thread run, so sharded
  answers are *byte-identical* to serial ones (float aggregation is
  not associative across regroupings; per-worker pre-merging would
  break that guarantee, so workers never merge).

Lifecycle: workers are pre-forked and handshaked before the first
query (``init`` loads the mmap'd dataset by fingerprint), crashed
workers are detected by pipe EOF and their in-flight morsel is retried
on a fresh worker (bounded retries; a *deterministic* task error is
never retried), and ``stop()`` drains gracefully — ``shutdown`` op,
stdin close, then SIGTERM, then SIGKILL.

Feedback still flows: workers tally the selectivity/branch/random
access statistics the adaptive loop feeds on (the event objects stay
in the worker; only the tallies travel) and the parent folds them into
one :class:`~repro.adaptive.feedback.Observation` per run.
"""

from __future__ import annotations

import atexit
import base64
import json
import os
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError, QueryCancelled, QueryTimeout, ReproError
from ..obs import MetricsRegistry, observe_span, span
from ..plan.ops import LogicalPlan
from ..plan.serde import plan_to_wire
from .cancellation import CancelToken
from .costing import CostReport, StatsOverride
from .executor import MIN_MORSEL_ROWS, pick_morsel_rows, split_morsels
from .machine import MachineModel
from .metrics import RunMetrics, greedy_schedule, merge_reports
from .program import CompiledQuery, QueryResult, merge_partials
from .session import Session

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


# -- feedback tallies ----------------------------------------------------


def event_tallies(report: CostReport) -> Dict[str, Any]:
    """Fold a report's event stream into the compact statistics the
    adaptive loop feeds on (mirrors
    :func:`repro.adaptive.feedback.observation_from_run`'s extraction,
    but produces a JSON tally instead of an Observation so it can cross
    the worker pipe)."""
    from .events import Branch, CondRead, RandomAccess

    cond_range = 0
    cond_selected = 0
    branch_sites: Dict[str, List[float]] = {}
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
            site = branch_sites.setdefault(event.site, [0.0, 0.0])
            site[0] += event.n
            site[1] += event.n * event.taken_fraction
        elif isinstance(event, RandomAccess):
            random_n += event.n
            ht_bytes = max(ht_bytes, event.struct_bytes)
    return {
        "cond_range": cond_range,
        "cond_selected": cond_selected,
        "branch_sites": branch_sites,
        "random_accesses": random_n,
        "ht_bytes": ht_bytes,
        "events": n_events,
    }


def merge_tallies(tallies: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum per-morsel tallies into one run-level tally."""
    merged: Dict[str, Any] = {
        "cond_range": 0,
        "cond_selected": 0,
        "branch_sites": {},
        "random_accesses": 0,
        "ht_bytes": 0,
        "events": 0,
    }
    sites: Dict[str, List[float]] = merged["branch_sites"]
    for tally in tallies:
        merged["cond_range"] += tally.get("cond_range", 0)
        merged["cond_selected"] += tally.get("cond_selected", 0)
        merged["random_accesses"] += tally.get("random_accesses", 0)
        merged["ht_bytes"] = max(
            merged["ht_bytes"], tally.get("ht_bytes", 0)
        )
        merged["events"] += tally.get("events", 0)
        for name, (n, taken) in tally.get("branch_sites", {}).items():
            site = sites.setdefault(name, [0.0, 0.0])
            site[0] += n
            site[1] += taken
    return merged


def observation_from_tallies(tallies: Dict[str, Any], metrics):
    """An adaptive-loop Observation from merged shard tallies (the
    cross-process replacement for ``observation_from_run``, whose event
    stream stays in the workers)."""
    from ..adaptive.feedback import Observation

    selectivity: Optional[float] = None
    if tallies["cond_range"] > 0:
        selectivity = tallies["cond_selected"] / tallies["cond_range"]
    elif tallies["branch_sites"]:
        survival = 1.0
        for n, taken in tallies["branch_sites"].values():
            if n > 0:
                survival *= taken / n
        selectivity = survival
    return Observation(
        wall_seconds=metrics.wall_seconds if metrics is not None else 0.0,
        total_cycles=(
            metrics.total_cycles if metrics is not None else 0.0
        ),
        scan_rows=metrics.scan_rows if metrics is not None else 0,
        parallel=bool(metrics.parallel) if metrics is not None else False,
        selectivity=selectivity,
        random_accesses=tallies["random_accesses"],
        ht_bytes=tallies["ht_bytes"],
        events=tallies["events"],
    )


# -- stats-override codec ------------------------------------------------


def override_to_wire(override) -> Optional[Dict[str, Any]]:
    if override is None:
        return None
    return {
        key: value
        for key, value in asdict(override).items()
        if value is not None
    }


def override_from_wire(wire) -> Optional[StatsOverride]:
    if not wire:
        return None
    return StatsOverride(**wire)


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
    respawned on demand (and re-warmed with the specs the group has
    seen), so a crash costs one morsel retry, never the group.
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
        self._warm_specs: List[Dict[str, Any]] = []
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
            warm = list(self._warm_specs)
        fresh = ShardWorkerHandle.spawn(shard_id, self._config())
        for spec in warm:
            try:
                fresh.request({"op": "warm", **spec})
            except ShardWorkerDied:
                break  # the task path will respawn and report properly
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

    def warmup(self, specs: List[Dict[str, Any]]) -> None:
        """Pre-compile specs on every worker (each item:
        ``{"spec": ..., "strategy": ..., "backend": ...}``)."""
        with self._lock:
            self._warm_specs.extend(specs)
        for shard_id in range(self.shards):
            handle = self.worker(shard_id)
            for spec in specs:
                try:
                    handle.request({"op": "warm", **spec})
                except ShardWorkerDied:
                    self.note_crash(shard_id)
                    break

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


# -- the executor --------------------------------------------------------


class _ShardRun:
    """One sharded query: a morsel cursor scattered over the group.

    One channel thread per shard claims morsel indices, round-trips
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
        registry: Optional[MetricsRegistry],
        cancel: Optional[CancelToken],
    ) -> None:
        self.group = group
        self.template = task_template
        self.morsels = morsels
        self.label = label
        self.registry = registry
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

    def _token_stop(self) -> Optional[ExecutionError]:
        token = self.cancel
        if token is None or not token.stop_requested():
            return None
        done = sum(1 for r in self.replies if r is not None)
        progress = f"after {done}/{len(self.morsels)} morsels"
        if token.cancelled:
            return QueryCancelled(
                f"{self.label} cancelled {progress} "
                f"({token.elapsed():.3f}s elapsed)"
            )
        return QueryTimeout(
            f"{self.label} exceeded its {token.budget():.3f}s deadline "
            f"{progress} ({token.elapsed():.3f}s elapsed)",
            elapsed=token.elapsed(),
            deadline=token.budget(),
        )

    def _claim(self) -> Optional[int]:
        with self._lock:
            if self.cancelled or not self._pending:
                return None
            stop = self._token_stop()
            if stop is not None:
                self.cancelled = True
                self.stop_error = stop
                return None
            return self._pending.popleft()

    def _record(self, index: int, shard_id: int, reply: Dict[str, Any]):
        with self._lock:
            self.replies[index] = reply
            wall = float(reply.get("wall", 0.0))
            self.wall_by_shard[shard_id] = (
                self.wall_by_shard.get(shard_id, 0.0) + wall
            )
            self.group.tasks += 1
        self.group._count(
            "shard_tasks_total", shard=str(shard_id)
        )
        if self.registry is not None:
            observe_span(
                "shard_task",
                float(reply.get("wall", 0.0)),
                self.registry,
                shard=str(shard_id),
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

    def execute(self) -> None:
        threads = [
            threading.Thread(
                target=self._channel,
                args=(shard_id,),
                name=f"repro-shard-{shard_id}",
                daemon=True,
            )
            for shard_id in range(self.group.shards)
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


class ShardExecutor:
    """Runs compiled programs across a :class:`ShardGroup`.

    Mirrors :class:`~repro.engine.executor.MorselExecutor`'s parallel
    path — same morsel splitter, same serial-phase accounting, same
    deterministic merge and greedy schedule — with worker *processes*
    in place of threads. :meth:`execute` returns ``None`` when the
    program should not shard (no parallel plan, or the scan is below
    the fan-out floor); the caller then falls back to the thread path.
    """

    def __init__(
        self,
        group: ShardGroup,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.group = group
        self.registry = registry

    def execute(
        self,
        compiled: CompiledQuery,
        session: Session,
        *,
        logical: LogicalPlan,
        strategy: str,
        backend: str,
        encoding: str = "auto",
        override=None,
        cancel: Optional[CancelToken] = None,
    ) -> Optional[QueryResult]:
        """``logical`` is the operator tree ``compiled`` was compiled
        from: the workers receive its wire envelope and compile the
        same program themselves."""
        plan = compiled.parallel
        if plan is None:
            return None
        serial_limit = MIN_MORSEL_ROWS
        if session.knobs.morsel_rows is None:
            floor = session.knobs.min_parallel_rows
            if floor is None:
                floor = plan.min_parallel_rows
            serial_limit = max(serial_limit, floor)
        if plan.n_rows <= serial_limit:
            return None

        started = time.perf_counter()
        label = f"{compiled.strategy}:{compiled.name}"
        if cancel is not None:
            cancel.check(label)
        session.reset()

        # Serial phases run (and are costed) in the parent, exactly as
        # the thread path does: finalize needs the parent-side ctx, and
        # the workers' own setup runs are deliberately *not* reported —
        # they are redundant real work, not extra simulated work.
        serial_reports: List[CostReport] = []
        ctx = None
        if plan.setup is not None:
            setup_session = session.clone()
            with setup_session.tracer.kernel(f"{label}:setup"):
                ctx = plan.setup(setup_session)
            serial_reports.append(setup_session.tracer.report)

        morsel_rows = pick_morsel_rows(
            plan.n_rows, self.group.shards, session.knobs.morsel_rows
        )
        morsels = split_morsels(plan.n_rows, morsel_rows)
        task_template = {
            "spec": plan_to_wire(logical),
            "strategy": strategy,
            "backend": backend,
            # Encoding mode travels on the wire so workers pick the
            # same per-column code/value streams the parent priced;
            # workers mmap the cached code arrays, never decoded copies.
            "encoding": encoding,
            "override": override_to_wire(override),
            "ht_prefetch": bool(session.knobs.ht_prefetch),
        }
        run = _ShardRun(
            self.group, task_template, morsels, label,
            self.registry, cancel,
        )
        with self._span("shard_execute"):
            run.execute()
        run.raise_failure()

        replies = [r for r in run.replies if r is not None]
        values = [decode_partial(r["value"]) for r in replies]
        morsel_reports = [
            self._morsel_report(session, r) for r in replies
        ]

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
            [r.total_cycles for r in morsel_reports], self.group.shards
        )
        for morsel_report, worker_id in zip(morsel_reports, assignment):
            kernels = worker_stats[worker_id].by_kernel
            for kernel, cycles in morsel_report.by_kernel.items():
                kernels[kernel] = kernels.get(kernel, 0.0) + cycles
        for stats in worker_stats:
            stats.wall_seconds = run.wall_by_shard.get(
                stats.worker_id, 0.0
            )
        critical = serial_cycles + max(
            (s.sim_cycles for s in worker_stats), default=0.0
        )
        counts: Dict[str, int] = {}
        from .metrics import event_counts as count_events

        for serial_report in serial_reports:
            for kind, count in count_events(serial_report).items():
                counts[kind] = counts.get(kind, 0) + count
        for reply in replies:
            for kind, count in reply.get("event_counts", {}).items():
                counts[kind] = counts.get(kind, 0) + int(count)
        report.metrics = RunMetrics(
            wall_seconds=time.perf_counter() - started,
            workers=self.group.shards,
            morsels=len(morsels),
            morsel_rows=morsel_rows,
            scan_rows=plan.n_rows,
            parallel=True,
            pooled=False,
            sharded=True,
            machine=session.machine,
            total_cycles=report.total_cycles,
            critical_path_cycles=critical,
            serial_cycles=serial_cycles,
            event_counts=counts,
            worker_stats=worker_stats,
        )
        # The adaptive loop's cross-process feedback: the workers'
        # event tallies, merged, attached for the facade to fold.
        report.shard_tallies = merge_tallies(
            [r.get("tallies", {}) for r in replies]
        )
        return QueryResult(value=merged, report=report)

    def _morsel_report(self, session: Session, reply) -> CostReport:
        report = CostReport(
            machine=session.machine,
            total_cycles=float(reply.get("cycles", 0.0)),
            by_kernel={
                k: float(v)
                for k, v in reply.get("by_kernel", {}).items()
            },
            by_kind={
                k: float(v)
                for k, v in reply.get("by_kind", {}).items()
            },
        )
        return report

    def _span(self, stage: str):
        from contextlib import nullcontext

        if self.registry is None:
            return nullcontext()
        return span(stage, self.registry)
