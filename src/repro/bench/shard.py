"""Closed-loop shard-executor benchmark (``--shard-bench``).

Three phases, written machine-readable to ``BENCH_shard.json``:

1. **Equivalence sweep** — every TPC-H query × strategy cell (all 32),
   on both execution backends, runs once serially and once sharded; the
   answers must match *byte-for-byte* (``repr`` equality, which for
   NumPy arrays includes every float bit printed, backed by the
   simulated-cycle totals agreeing too). This is the correctness gate
   the multi-process executor lives under: scatter/gather must be
   invisible in the answer.

2. **Throughput scenarios** — a closed-loop client fleet drives the
   same engine three ways over an identical request stream: ``serial``
   (one worker, no shards), ``threads`` (the thread-pool morsel
   executor at N workers — today's serving ceiling), and ``shards``
   (N worker processes over the memory-mapped columns). Reported per
   scenario: achieved qps and wall seconds. Headline:
   ``per_core_efficiency`` = (shard qps / serial qps) / usable cores,
   and ``speedup_vs_threads`` = shard qps / thread qps. Both are
   *host-honest*: ``usable cores`` is ``min(shards, os.cpu_count())``
   and the host's core count is recorded in the report — on a
   single-core container the shard fleet time-slices one core and the
   speedup columns say so; the CI gate asserts on its own multi-core
   run, never on committed numbers from a smaller machine.

3. **Crash drill** — mid-stream, the bench hard-kills a shard worker
   (SIGKILL, no warning) while queries are in flight. The contract:
   zero failed requests (the dead worker's morsel retries on a fresh
   process), at least one recorded restart, and the post-crash answers
   still byte-identical.
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
from ..engine import Engine
from ..engine.machine import PAPER_MACHINE
from ..tpch import STRATEGIES, logical_plan, query_names

#: The serving workload of the throughput phase: the two biggest
#: lineitem scans — the queries the serving bench also hammers.
WORKLOAD = ("Q1", "Q6")


def _build_engine(
    db, machine, *, workers: int = 1, shards: Optional[int] = None
) -> Engine:
    # min_parallel_rows=1: the bench runs at reduced scale factors, and
    # the question under test is executor scaling, not the fan-out
    # floor heuristic (which would park small scans on one core).
    return Engine(
        db,
        machine=machine,
        workers=workers,
        shards=shards,
        min_parallel_rows=1,
    )


def run_equivalence_sweep(
    db, machine, shards: int
) -> Dict[str, Any]:
    """Sharded vs serial byte-identity over every query × strategy
    cell, both backends. The gate is on the *answers* (``repr``
    equality — every float bit); simulated-cycle parity against the
    thread path at the same worker count is recorded alongside as a
    diagnostic (the instrumented cost model has a known, pre-existing
    str-hash-order sensitivity on string-keyed joins, so cycle parity
    across processes is informative, not contractual)."""
    serial = _build_engine(db, machine)
    threads = _build_engine(db, machine, workers=shards)
    sharded = _build_engine(db, machine, shards=shards)
    sharded.start_shards()
    cells = 0
    identical = 0
    sharded_runs = 0
    cycles_equal_runs = 0
    mismatches: List[str] = []
    try:
        for name in query_names():
            plan = logical_plan(name)
            for strategy in STRATEGIES:
                cells += 1
                cell_ok = True
                for backend in ("vectorized", "instrumented"):
                    a = serial.execute(plan, strategy, backend=backend)
                    t = threads.execute(plan, strategy, backend=backend)
                    b = sharded.execute(plan, strategy, backend=backend)
                    if b.report.metrics.sharded:
                        sharded_runs += 1
                    if abs(
                        t.report.total_cycles - b.report.total_cycles
                    ) < 1e-6:
                        cycles_equal_runs += 1
                    if repr(a.value) != repr(b.value) or (
                        repr(t.value) != repr(b.value)
                    ):
                        cell_ok = False
                        mismatches.append(
                            f"{name}/{strategy}/{backend}"
                        )
                if cell_ok:
                    identical += 1
    finally:
        sharded.shutdown()
        threads.shutdown()
        serial.shutdown()
    return {
        "cells": cells,
        "identical": identical,
        "sharded_runs": sharded_runs,
        "cycles_equal_runs": cycles_equal_runs,
        "mismatches": mismatches,
    }


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


def run_crash_drill(
    db, machine, shards: int, *, requests: int = 12
) -> Dict[str, Any]:
    """Kill a shard worker mid-stream; every request must still answer
    correctly (retried morsel on a fresh worker, zero failures)."""
    engine = _build_engine(db, machine, shards=shards)
    group = engine.start_shards()
    plans = [logical_plan(name) for name in WORKLOAD]
    failures: List[str] = []
    expected = [
        repr(engine.execute(plan, "swole").value) for plan in plans
    ]
    killed = threading.Event()

    def killer() -> None:
        time.sleep(0.01)  # let a request get morsels in flight
        if group.kill_worker(0):
            killed.set()

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    wrong = 0
    for i in range(requests):
        plan = plans[i % len(plans)]
        try:
            result = engine.execute(plan, "swole")
            if repr(result.value) != expected[i % len(plans)]:
                wrong += 1
        except Exception as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
    thread.join()
    snapshot = group.snapshot()
    engine.shutdown()
    return {
        "induced": killed.is_set(),
        "requests": requests,
        "failures": failures,
        "wrong_answers": wrong,
        "restarts": snapshot["restarts"],
        "retries": snapshot["retries"],
        "recovered": (
            killed.is_set()
            and not failures
            and wrong == 0
            and snapshot["restarts"] >= 1
        ),
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

    print(f"== equivalence sweep (shards={shards}, sf={sf}) ==")
    equivalence = run_equivalence_sweep(db, machine, shards)
    print(
        f"  {equivalence['identical']}/{equivalence['cells']} cells "
        f"byte-identical ({equivalence['sharded_runs']} sharded runs, "
        f"{equivalence['cycles_equal_runs']} with exact simulated-cycle "
        f"parity vs the thread path)"
    )
    if equivalence["mismatches"]:
        print(f"  MISMATCHES: {equivalence['mismatches']}")

    plans = [logical_plan(name) for name in WORKLOAD]
    scenarios: Dict[str, Dict[str, Any]] = {}
    print("== throughput scenarios ==")
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

    print("== crash drill ==")
    crash = run_crash_drill(db, machine, shards)
    print(
        f"  induced={crash['induced']} recovered={crash['recovered']} "
        f"restarts={crash['restarts']} failures={len(crash['failures'])}"
    )

    serial_qps = scenarios["serial"]["qps"]
    shard_qps = scenarios["shards"]["qps"]
    thread_qps = scenarios["threads"]["qps"]
    failed = sum(
        len(s["failures"]) for s in scenarios.values()
    ) + len(crash["failures"])
    headline = {
        "speedup_vs_serial": shard_qps / serial_qps if serial_qps else 0.0,
        "speedup_vs_threads": (
            shard_qps / thread_qps if thread_qps else 0.0
        ),
        "per_core_efficiency": (
            (shard_qps / serial_qps) / usable_cores if serial_qps else 0.0
        ),
        "failed_requests": failed,
        "crash_recovered": crash["recovered"],
        "equivalence_ok": (
            equivalence["identical"] == equivalence["cells"]
            and not equivalence["mismatches"]
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
        "equivalence": equivalence,
        "scenarios": scenarios,
        "crash_drill": crash,
        "headline": headline,
    }
    if out_path:
        Path(out_path).write_text(json.dumps(report, indent=1))
        print(f"wrote {out_path}")
    return report
