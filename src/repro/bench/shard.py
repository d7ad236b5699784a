"""Closed-loop shard-executor benchmark (``--shard-bench``).

A closed-loop client fleet drives the same engine three ways over an
identical request stream, written machine-readable to
``BENCH_shard.json``: ``serial`` (one worker, no shards), ``threads``
(the thread-pool morsel executor at N workers), and ``shards`` (N
worker processes over the memory-mapped columns). Reported per
scenario: achieved qps, wall seconds and failed requests. Headline:
``per_core_efficiency`` = (shard qps / serial qps) / usable cores, and
``speedup_vs_threads`` = shard qps / thread qps. Both are
*host-honest*: ``usable cores`` is ``min(shards, os.cpu_count())`` and
the host's core count is recorded in the report — on a single-core
container the shard fleet time-slices one core and the speedup columns
say so; the CI gate asserts on its own multi-core run, never on
committed numbers from a smaller machine.

Correctness lives in tier-1 tests, not here: every query x strategy
cell sharded on both backends (``tests/test_shard.py::TestShardedSweep``)
and a worker killed mid-task (``TestCrashRecovery``).
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..datagen import tpch as tpchgen
from ..datagen.cache import load_dataset
from ..engine import Engine, ExecutionKnobs
from ..engine.machine import PAPER_MACHINE
from ..tpch import logical_plan

#: The serving workload: the two biggest lineitem scans — the queries
#: the serving bench also hammers.
WORKLOAD = ("Q1", "Q6")


def _build_engine(
    db, machine, *, workers: int = 1, shards: Optional[int] = None
) -> Engine:
    # A fan-out floor of one row: the bench runs at reduced scale
    # factors, and the question under test is executor scaling, not the
    # fan-out floor heuristic (which would park small scans on one core).
    return Engine(
        db,
        machine=machine,
        workers=workers,
        shards=shards,
        knobs=ExecutionKnobs(min_parallel_rows=1),
    )


def _drive(
    engine: Engine,
    plans,
    *,
    clients: int,
    requests_per_client: int,
) -> Dict[str, Any]:
    """Closed-loop fleet: each client thread issues its request stream
    back-to-back; returns qps over the whole fleet plus failures."""
    failures: List[str] = []
    lock = threading.Lock()

    def client_loop(offset: int) -> None:
        for i in range(requests_per_client):
            plan = plans[(offset + i) % len(plans)]
            try:
                engine.execute(plan, "swole")
            except Exception as exc:  # a failed request is the finding
                with lock:
                    failures.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(clients)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    completed = clients * requests_per_client - len(failures)
    return {
        "completed": completed,
        "failures": failures,
        "wall_seconds": elapsed,
        "qps": completed / elapsed if elapsed > 0 else 0.0,
    }


def run_shard_bench(
    *,
    sf: float = 0.05,
    seed: Optional[int] = None,
    shards: int = 4,
    clients: int = 4,
    requests_per_client: int = 10,
    out_path: str = "BENCH_shard.json",
) -> Dict[str, Any]:
    config = tpchgen.TpchConfig(
        scale_factor=sf, seed=seed if seed is not None else 42
    )
    machine = PAPER_MACHINE.scaled(config.machine_scale)
    db = load_dataset("tpch", config)
    host_cpus = os.cpu_count() or 1
    usable_cores = max(1, min(shards, host_cpus))

    plans = [logical_plan(name) for name in WORKLOAD]
    scenarios: Dict[str, Dict[str, Any]] = {}
    print(f"== throughput scenarios (shards={shards}, sf={sf}) ==")
    for label, kwargs in (
        ("serial", {"workers": 1}),
        ("threads", {"workers": shards}),
        ("shards", {"shards": shards}),
    ):
        engine = _build_engine(db, machine, **kwargs)
        if "shards" in kwargs:
            engine.start_shards()
        # Warm the plan cache (and shard program caches) out of band.
        for plan in plans:
            engine.execute(plan, "swole")
        scenario = _drive(
            engine,
            plans,
            clients=clients,
            requests_per_client=requests_per_client,
        )
        if "shards" in kwargs:
            scenario["shard_stats"] = engine._shard_group.snapshot()
        engine.shutdown()
        scenarios[label] = scenario
        print(
            f"  {label:<8s} {scenario['qps']:8.1f} qps "
            f"({scenario['completed']} ok, "
            f"{len(scenario['failures'])} failed)"
        )

    serial_qps = scenarios["serial"]["qps"]
    shard_qps = scenarios["shards"]["qps"]
    thread_qps = scenarios["threads"]["qps"]
    headline = {
        "speedup_vs_serial": shard_qps / serial_qps if serial_qps else 0.0,
        "speedup_vs_threads": (
            shard_qps / thread_qps if thread_qps else 0.0
        ),
        "per_core_efficiency": (
            (shard_qps / serial_qps) / usable_cores if serial_qps else 0.0
        ),
        "failed_requests": sum(
            len(s["failures"]) for s in scenarios.values()
        ),
    }
    print(
        f"== headline: {headline['speedup_vs_serial']:.2f}x vs serial, "
        f"{headline['speedup_vs_threads']:.2f}x vs threads, "
        f"per-core efficiency {headline['per_core_efficiency']:.2f} "
        f"over {usable_cores} usable core(s) =="
    )

    report = {
        "bench": "shard",
        "unix_time": time.time(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": host_cpus,
        },
        "config": {
            "sf": sf,
            "seed": config.seed,
            "shards": shards,
            "usable_cores": usable_cores,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "workload": list(WORKLOAD),
        },
        "scenarios": scenarios,
        "headline": headline,
    }
    if out_path:
        Path(out_path).write_text(json.dumps(report, indent=1))
        print(f"wrote {out_path}")
    return report
