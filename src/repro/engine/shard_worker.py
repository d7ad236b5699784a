"""Shard worker process: ``python -m repro.engine.shard_worker``.

One worker serves one shard of a :class:`~repro.engine.shard.ShardGroup`.
The protocol is line-JSON on stdin/stdout (stderr passes through to the
parent for crash forensics):

``init``
    Loads the dataset **by fingerprint** from the on-disk dataset cache
    (``np.load(..., mmap_mode="r")`` under the hood — the OS page cache
    shares the physical column pages with every sibling worker and the
    parent) and builds the machine model. Replies ``ready`` or
    ``fatal``.
``task``
    Runs one morsel ``[lo, hi)`` of a compiled program's ``partial``
    and replies with the bit-exact encoded partial state and the
    morsel's cost report (its priced event stream — empty on the
    vectorized backend).
``shutdown``
    Exit 0. SIGTERM does the same, but drains a task already in flight
    first (graceful drain); a second SIGTERM exits immediately.

Compilation happens *in the worker*, from the plan envelope and the
compile spec's wire form —
programs, like columns, never cross the pipe. Codegen is deterministic
(the golden-source tests pin it), so the worker's program is the same
one the parent would have compiled, and the partial states it produces
merge byte-identically.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..codegen.pipeline import compile_pipeline
from ..errors import PlanError
from ..plan.serde import plan_from_wire
from .machine import MachineModel
from .plan_cache import CompileSpec
from .session import Session
from .shard import encode_partial, report_to_wire

#: Compiled programs kept per worker (LRU, keyed by the task's
#: :class:`CompileSpec`); a serving worker sees a small working set.
_PROGRAM_CACHE_CAP = 32


class _Worker:
    def __init__(self) -> None:
        self.shard_id = -1
        self.db = None
        self.machine: Optional[MachineModel] = None
        self.tile = 1024
        self.programs: "OrderedDict[CompileSpec, Tuple]" = OrderedDict()
        self.busy = False
        self.stop_requested = False

    # -- lifecycle -------------------------------------------------------

    def init(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        from ..datagen.cache import DatasetCache

        self.shard_id = int(msg["shard_id"])
        self.machine = MachineModel(**msg["machine"])
        self.tile = int(msg.get("tile", 1024))
        cache = DatasetCache(cache_dir=Path(msg["cache_dir"]))
        db = cache.load_fingerprint(msg["fingerprint"])
        if db is None:
            return {
                "op": "fatal",
                "error": (
                    f"dataset {msg['fingerprint']} not found in cache "
                    f"{msg['cache_dir']}; the parent must materialise "
                    f"it before forking shard workers"
                ),
            }
        self.db = db
        return {"op": "ready", "shard_id": self.shard_id, "pid": os.getpid()}

    # -- compilation -----------------------------------------------------

    def _compile(self, msg: Dict[str, Any]) -> Tuple:
        """The (compiled, ctx) pair for a task message, cached.

        ``ctx`` is the program's setup state (hash tables and the
        like), built once per program on a throwaway session — every
        morsel of every request against this program reuses it, the
        per-process analogue of the parent running setup once per
        query. Setup cycles are deliberately not reported: the parent
        accounts the serial phases itself.

        The plan envelope must claim the spec's fingerprint *before*
        the cache is consulted, so a cached program never answers a
        task whose plan is not the one its spec names.
        """
        spec = CompileSpec.from_wire(msg.get("spec"), self.machine)
        envelope = msg.get("plan")
        if (
            not isinstance(envelope, dict)
            or envelope.get("fingerprint") != spec.fingerprint
        ):
            raise PlanError(
                f"plan envelope does not carry the compile spec's "
                f"fingerprint {spec.fingerprint}"
            )
        hit = self.programs.get(spec)
        if hit is not None:
            self.programs.move_to_end(spec)
            return hit
        compiled = compile_pipeline(plan_from_wire(envelope), self.db, spec)
        ctx = None
        if compiled.parallel is not None and compiled.parallel.setup:
            ctx = compiled.parallel.setup(self._session(msg))
        self.programs[spec] = (compiled, ctx)
        while len(self.programs) > _PROGRAM_CACHE_CAP:
            self.programs.popitem(last=False)
        return compiled, ctx

    def _session(self, msg: Dict[str, Any]) -> Session:
        session = Session(machine=self.machine, tile=self.tile)
        session.knobs.ht_prefetch = bool(msg.get("ht_prefetch", False))
        return session

    # -- ops -------------------------------------------------------------

    def task(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        compiled, ctx = self._compile(msg)
        plan = compiled.parallel
        if plan is None:
            raise ValueError(
                f"{compiled.strategy}:{compiled.name} declares no "
                f"parallel plan; the parent should not have sharded it"
            )
        session = self._session(msg)
        lo, hi = int(msg["lo"]), int(msg["hi"])
        label = f"{compiled.strategy}:{compiled.name}"
        started = time.perf_counter()
        # The kernel label matches the thread path's morsel label so
        # by_kernel breakdowns agree between sharded and thread runs.
        with session.tracer.kernel(f"{label}:morsel"):
            value = plan.partial(session, ctx, lo, hi)
        wall = time.perf_counter() - started
        return {
            "op": "result",
            "id": msg.get("id"),
            "value": encode_partial(value),
            "report": report_to_wire(session.tracer.report),
            "wall": wall,
        }


def _reply(obj: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    worker = _Worker()

    def _sigterm(signum, frame):
        # Graceful drain: finish the in-flight task, then exit before
        # reading the next one. Idle (or a second SIGTERM): exit now.
        if worker.busy and not worker.stop_requested:
            worker.stop_requested = True
            return
        os._exit(0)

    signal.signal(signal.SIGTERM, _sigterm)
    # A terminal Ctrl-C signals the whole foreground process group,
    # workers included — but shutdown is the parent's call (shutdown
    # op, stdin close, then the SIGTERM ladder). Ignore SIGINT so an
    # operator interrupt doesn't splatter worker tracebacks over the
    # parent's own drain output.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    for line in sys.stdin:
        if not line.strip():
            continue
        try:
            msg = json.loads(line)
        except ValueError:
            _reply({"op": "error", "error": f"bad frame: {line[:200]!r}"})
            continue
        op = msg.get("op")
        if op == "shutdown":
            return 0
        worker.busy = True
        try:
            if op == "init":
                reply = worker.init(msg)
            elif op == "task":
                reply = worker.task(msg)
            else:
                reply = {
                    "op": "error",
                    "id": msg.get("id"),
                    "error": f"unknown op {op!r}",
                }
        except Exception as exc:
            # The worker's reply path: a deterministic failure becomes an
            # error reply (the parent raises it as a typed
            # ExecutionError) and the worker goes on serving.
            reply = {
                "op": "error",
                "id": msg.get("id"),
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            worker.busy = False
        _reply(reply)
        if reply.get("op") == "fatal":
            return 1
        if worker.stop_requested:
            return 0
    return 0  # EOF: parent closed our stdin


if __name__ == "__main__":
    sys.exit(main())
