"""Shard worker process: ``python -m repro.engine.shard_worker``.

One worker serves one shard of a :class:`~repro.engine.shard.ShardGroup`.
The protocol is pickled dicts on stdin/stdout, one frame per message
(stderr passes through to the parent for crash forensics, and so does
anything the worker prints):

``init``
    Loads the dataset **by fingerprint** from the on-disk dataset cache
    (``np.load(..., mmap_mode="r")`` under the hood — the OS page cache
    shares the physical column pages with every sibling worker and the
    parent) and builds the machine model. Replies ``ready`` or
    ``fatal``.
``task``
    Runs one morsel ``[lo, hi)`` of a compiled program's ``partial``
    and replies with the partial state (pickle keeps it bit-exact).
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

import os
import pickle
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

#: Compiled programs kept per worker (LRU, keyed by the task's
#: :class:`CompileSpec`); a serving worker sees a small working set.
_PROGRAM_CACHE_CAP = 32


class _Worker:
    def __init__(self) -> None:
        self.shard_id = -1
        self.db = None
        self.machine: Optional[MachineModel] = None
        self.programs: "OrderedDict[CompileSpec, Tuple]" = OrderedDict()
        self.busy = False
        self.stop_requested = False

    # -- lifecycle -------------------------------------------------------

    def init(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        from ..datagen.cache import DatasetCache

        self.shard_id = int(msg["shard_id"])
        self.machine = MachineModel(**msg["machine"])
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
        like), built once per program — every morsel of every request
        against this program reuses it, the per-process analogue of the
        parent running setup once per query.

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
            ctx = compiled.parallel.setup()
        self.programs[spec] = (compiled, ctx)
        while len(self.programs) > _PROGRAM_CACHE_CAP:
            self.programs.popitem(last=False)
        return compiled, ctx

    # -- ops -------------------------------------------------------------

    def task(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        compiled, ctx = self._compile(msg)
        plan = compiled.parallel
        if plan is None:
            raise ValueError(
                f"{compiled.strategy}:{compiled.name} declares no "
                f"parallel plan; the parent should not have sharded it"
            )
        started = time.perf_counter()
        value = plan.partial(ctx, int(msg["lo"]), int(msg["hi"]))
        return {
            "op": "result",
            "id": msg.get("id"),
            "value": value,
            "wall": time.perf_counter() - started,
        }


def _reply(frames, obj: Dict[str, Any]) -> None:
    pickle.dump(obj, frames, pickle.HIGHEST_PROTOCOL)
    frames.flush()


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

    # Frames own the real stdout; a stray print goes to stderr instead
    # of tearing a reply.
    requests, frames = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr
    while True:
        try:
            msg = pickle.load(requests)
        except EOFError:
            return 0  # the parent closed our stdin
        except Exception as exc:
            # The stream cannot be resynchronised past a torn frame:
            # answer once, then exit so the parent respawns this shard.
            _reply(frames, {"op": "error", "error": f"bad frame: {exc!r}"})
            return 1
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
        _reply(frames, reply)
        if reply.get("op") == "fatal":
            return 1
        if worker.stop_requested:
            return 0


if __name__ == "__main__":
    sys.exit(main())
