"""Closed-loop serving benchmark: qps, tail latency, shed and miss rates.

Where the ledger (``ledger/run.py``) drives a bare
:class:`~repro.engine.facade.Engine` or one client from one loop, this
bench measures the *query service layer* under load, the way a client
fleet would: ``clients`` closed-loop load generators (one thread
— and, over TCP, one connection — each) issue a mixed workload against
a :class:`~repro.server.service.QueryService` with configured
``concurrency`` and ``queue_depth``, every request carrying a deadline.
Reported per (workload, strategy):

* achieved queries/sec and p50/p95/p99 wall latency over completed
  requests;
* the **shed rate** (structured ``queue_full`` rejections / issued) and
  the **deadline-miss rate** (``deadline_exceeded`` responses plus
  requests that completed past their budget);
* a **serial baseline** — the identical request stream as plain
  sequential ``engine.execute`` calls — and the served-over-serial
  speedup, which is the tentpole claim: a warm concurrent server
  sustains more qps than library calls in a loop. The server's edge
  has two sources: **request coalescing** (duplicate queued requests
  are answered from one execution — a fleet hammering a small query
  mix is mostly duplicates, and a serial caller has no queue to
  coalesce), which holds on any host; and concurrent GIL-releasing
  kernels, which add on multi-core hosts. The per-cell ``coalesced``
  counts in ``service_stats`` make the first factor inspectable.

Two methodology details keep that comparison fair rather than flattering:

* The served scenarios size their service threads to the *host* —
  ``min(concurrency, os.cpu_count())`` — because compute threads beyond
  the core count only time-slice each other (on a single-core runner,
  four concurrent NumPy kernels finish no sooner than one at a time,
  but pay the context-switch thrash). Both the requested and effective
  values land in the report.
* Serial and served runs alternate for ``rounds`` interleaved rounds
  and the headline compares the **best round of each** (per-round qps
  is recorded alongside) — a noise spike then has to be systematic to
  move the verdict.

A separate **shedding scenario** runs a deliberately undersized service
(``concurrency=1``, ``queue_depth=2``) under the same client fleet to
demonstrate overload behaviour: a healthy shed rate, zero transport
failures, and no hung workers.

``--connect host:port`` drives an already-running
``python -m repro.server`` over TCP instead of an in-process service
(the CI smoke job does); the shedding scenario is skipped there because
the remote queue cannot be resized.

Results are written machine-readable to ``BENCH_serving.json``.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..datagen import microbench as mb
from ..datagen import tpch as tpchgen
from ..datagen.cache import DatasetCache, dataset_cache
from ..engine import Engine
from ..engine.machine import PAPER_MACHINE
from ..errors import ReproError
from ..plan.serde import plan_to_wire
from ..server import (
    ERR_DEADLINE,
    ERR_QUEUE_FULL,
    QueryRequest,
    QueryResponse,
    QueryService,
    ServiceClient,
)
from ..tpch import logical_plan

#: Strategies measured by default (the paper's main series).
DEFAULT_STRATEGIES = ("datacentric", "hybrid", "swole")

#: Default output artifact.
DEFAULT_OUT = "BENCH_serving.json"

#: Generous per-request budget for the throughput scenarios (misses
#: should be rare unless the host is badly oversubscribed).
DEFAULT_DEADLINE = 2.0

#: Interleaved serial/served rounds per (workload, strategy); the
#: report keeps the best round of each side (plus all per-round qps).
DEFAULT_ROUNDS = 3


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def effective_concurrency(requested: int) -> int:
    """Service threads actually used by the served scenarios: the
    requested count capped at the host's cores (compute threads beyond
    that only time-slice each other)."""
    return max(1, min(requested, os.cpu_count() or 1))

#: Wire-format workload mixes (shared by both transports). TPC-H
#: queries travel as plan envelopes — structural JSON + IR
#: fingerprint.
WORKLOADS: Dict[str, List[Tuple[str, Any]]] = {
    "tpch-q1q6": [
        ("Q1", plan_to_wire(logical_plan("Q1"))),
        ("Q6", plan_to_wire(logical_plan("Q6"))),
    ],
    "micro-q1q2": [
        ("uQ1-mul", {"micro": "q1", "args": {"sel": 30, "op": "mul"}}),
        ("uQ1-div", {"micro": "q1", "args": {"sel": 30, "op": "div"}}),
        ("uQ2", {"micro": "q2", "args": {"sel": 30}}),
    ],
}

#: issue(spec, strategy, deadline) -> QueryResponse
IssueFn = Callable[[Any, str, Optional[float]], QueryResponse]


@dataclass
class LoadgenResult:
    """What the client fleet observed in one scenario."""

    scenario: str
    workload: str
    strategy: str
    clients: int
    concurrency: int
    queue_depth: int
    issued: int = 0
    ok: int = 0
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    #: ``ok`` responses that nevertheless finished past their budget
    #: (a serial kernel cannot be interrupted; the miss is reported).
    completed_late: int = 0
    total_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list, repr=False)

    @property
    def qps(self) -> float:
        return self.ok / self.total_seconds if self.total_seconds else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.issued if self.issued else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        if not self.issued:
            return 0.0
        return (self.timed_out + self.completed_late) / self.issued

    def _pct(self, q: float) -> float:
        return percentile(sorted(self.latencies), q) * 1e3

    @property
    def p50_ms(self) -> float:
        return self._pct(0.50)

    @property
    def p95_ms(self) -> float:
        return self._pct(0.95)

    @property
    def p99_ms(self) -> float:
        return self._pct(0.99)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "workload": self.workload,
            "strategy": self.strategy,
            "clients": self.clients,
            "concurrency": self.concurrency,
            "queue_depth": self.queue_depth,
            "issued": self.issued,
            "ok": self.ok,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "failed": self.failed,
            "completed_late": self.completed_late,
            "total_seconds": self.total_seconds,
            "qps": self.qps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "shed_rate": self.shed_rate,
            "deadline_miss_rate": self.deadline_miss_rate,
        }

    def format_row(self) -> str:
        return (
            f"{self.scenario:<10s} {self.workload:<12s} "
            f"{self.strategy:<12s} {self.qps:>8.1f} q/s  "
            f"p50 {self.p50_ms:>7.2f} p95 {self.p95_ms:>7.2f} "
            f"p99 {self.p99_ms:>7.2f} ms  "
            f"shed {self.shed_rate:>5.1%}  miss {self.deadline_miss_rate:>5.1%}"
        )


def drive_load(
    issue: IssueFn,
    mix: Sequence[Tuple[str, Any]],
    strategy: str,
    *,
    clients: int,
    requests_per_client: int,
    deadline: Optional[float],
    result: LoadgenResult,
) -> LoadgenResult:
    """Run the closed loop: each client thread issues its share of the
    mix back-to-back; counters and latencies merge under one lock."""
    lock = threading.Lock()
    start_barrier = threading.Barrier(clients + 1)

    def client_loop(offset: int) -> None:
        local: List[Tuple[str, float, bool]] = []
        start_barrier.wait()
        for i in range(requests_per_client):
            _, spec = mix[(offset + i) % len(mix)]
            begin = time.perf_counter()
            try:
                response = issue(spec, strategy, deadline)
            except ReproError:
                local.append(("transport", 0.0, False))
                continue
            elapsed = time.perf_counter() - begin
            if response.ok:
                late = bool(response.metrics.get("deadline_missed")) or (
                    deadline is not None and elapsed > deadline
                )
                local.append(("ok", elapsed, late))
            elif response.error_code == ERR_QUEUE_FULL:
                retry = (
                    response.error.retry_after
                    if response.error is not None
                    else None
                )
                local.append(("shed", retry or 0.0, False))
                if retry:
                    # A well-behaved client honours the hint (bounded,
                    # so an overloaded scenario still finishes quickly).
                    time.sleep(min(retry, 0.05))
            elif response.error_code == ERR_DEADLINE:
                local.append(("timeout", elapsed, False))
            else:
                local.append(("failed", elapsed, False))
        with lock:
            for kind, value, late in local:
                result.issued += 1
                if kind == "ok":
                    result.ok += 1
                    result.latencies.append(value)
                    if late:
                        result.completed_late += 1
                elif kind == "shed":
                    result.shed += 1
                elif kind == "timeout":
                    result.timed_out += 1
                else:
                    result.failed += 1

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    result.total_seconds = time.perf_counter() - begin
    return result


def run_serial_baseline(
    engine: Engine,
    mix: Sequence[Tuple[str, Any]],
    strategy: str,
    *,
    requests: int,
    workload: str,
    backend: Optional[str] = None,
) -> LoadgenResult:
    """The un-served baseline: the same request stream as sequential
    ``engine.execute`` calls on one thread (workers=1, no queue).
    ``backend`` overrides the engine's default execution backend."""
    from ..server.protocol import parse_query_spec

    result = LoadgenResult(
        scenario="serial",
        workload=workload,
        strategy=strategy,
        clients=1,
        concurrency=1,
        queue_depth=0,
    )
    queries = [parse_query_spec(spec) for _, spec in mix]
    # Warm the plan cache outside the measured loop.
    engine.execute(queries[0], strategy, workers=1, backend=backend)
    begin = time.perf_counter()
    for i in range(requests):
        start = time.perf_counter()
        engine.execute(
            queries[i % len(queries)], strategy, workers=1, backend=backend
        )
        result.latencies.append(time.perf_counter() - start)
        result.issued += 1
        result.ok += 1
    result.total_seconds = time.perf_counter() - begin
    return result


def service_issue_fn(
    service: QueryService, backend: Optional[str] = None
) -> IssueFn:
    def issue(spec, strategy, deadline):
        return service.execute(
            QueryRequest(
                query=spec,
                strategy=strategy,
                deadline=deadline,
                backend=backend,
            ),
            timeout=60.0,
        )

    return issue


def run_service_scenario(
    engine: Engine,
    mix: Sequence[Tuple[str, Any]],
    strategy: str,
    *,
    scenario: str,
    workload: str,
    clients: int,
    concurrency: int,
    queue_depth: int,
    requests_per_client: int,
    deadline: Optional[float],
    backend: Optional[str] = None,
) -> Tuple[LoadgenResult, dict]:
    """One in-process served scenario; returns the loadgen view and the
    service's own stats snapshot. ``backend`` pins every request's
    execution backend (``None`` serves the engine's default)."""
    result = LoadgenResult(
        scenario=scenario,
        workload=workload,
        strategy=strategy,
        clients=clients,
        concurrency=concurrency,
        queue_depth=queue_depth,
    )
    with QueryService(
        engine, concurrency=concurrency, queue_depth=queue_depth
    ) as service:
        # Warm the plan cache outside the measured loop (one request
        # per mix entry).
        issue = service_issue_fn(service, backend)
        for _, spec in mix:
            issue(spec, strategy, None)
        drive_load(
            issue,
            mix,
            strategy,
            clients=clients,
            requests_per_client=requests_per_client,
            deadline=deadline,
            result=result,
        )
        stats = service.stats.snapshot()
    return result, stats


def run_serving_bench(
    *,
    rows: int = 200_000,
    sf: float = 0.01,
    seed: Optional[int] = None,
    engine_workers: int = 1,
    concurrency: int = 4,
    queue_depth: int = 64,
    clients: int = 8,
    requests_per_client: int = 40,
    deadline: float = DEFAULT_DEADLINE,
    rounds: int = DEFAULT_ROUNDS,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    backend: str = "vectorized",
    out_path: Optional[str] = DEFAULT_OUT,
    cache: Optional[DatasetCache] = None,
    connect: Optional[str] = None,
    connect_workload: str = "tpch-q1q6",
    verbose: bool = True,
) -> dict:
    """Run the serving suite; return (and optionally write) the report.

    ``backend`` is the execution backend the whole suite runs on:
    in-process engines are built with it, and over TCP every request
    carries it so the measurement does not depend on the remote
    server's default.
    """
    say = print if verbose else (lambda *_a, **_k: None)
    if rounds < 1:
        raise ReproError(f"rounds must be at least 1, got {rounds}")
    if connect is not None:
        report = _run_connect(
            connect,
            workload=connect_workload,
            strategies=strategies,
            clients=clients,
            requests_per_client=requests_per_client,
            deadline=deadline,
            rounds=rounds,
            backend=backend,
            say=say,
        )
    else:
        report = _run_in_process(
            rows=rows,
            sf=sf,
            seed=seed,
            engine_workers=engine_workers,
            concurrency=concurrency,
            queue_depth=queue_depth,
            clients=clients,
            requests_per_client=requests_per_client,
            deadline=deadline,
            rounds=rounds,
            strategies=strategies,
            backend=backend,
            cache=cache or dataset_cache(),
            say=say,
        )
    report["bench"] = "serving"
    report["unix_time"] = time.time()
    report["host"] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    if out_path:
        Path(out_path).write_text(json.dumps(report, indent=1))
        say(f"wrote {out_path}")
    return report


def _run_in_process(
    *,
    rows: int,
    sf: float,
    seed: Optional[int],
    engine_workers: int,
    concurrency: int,
    queue_depth: int,
    clients: int,
    requests_per_client: int,
    deadline: float,
    rounds: int,
    strategies: Sequence[str],
    backend: str,
    cache: DatasetCache,
    say,
) -> dict:
    micro_config = (
        mb.MicrobenchConfig(num_rows=rows)
        if seed is None
        else mb.MicrobenchConfig(num_rows=rows, seed=seed)
    )
    tpch_config = (
        tpchgen.TpchConfig(scale_factor=sf)
        if seed is None
        else tpchgen.TpchConfig(scale_factor=sf, seed=seed)
    )
    sources: Dict[str, str] = {}
    databases = {}
    databases["micro-q1q2"] = (
        cache.load("microbench", micro_config),
        PAPER_MACHINE.scaled(micro_config.scale_factor),
    )
    sources["microbench"] = cache.last_source
    databases["tpch-q1q6"] = (
        cache.load("tpch", tpch_config),
        PAPER_MACHINE.scaled(tpch_config.machine_scale),
    )
    sources["tpch"] = cache.last_source
    say(
        "datasets: "
        + ", ".join(f"{name}={src}" for name, src in sources.items())
    )

    service_threads = effective_concurrency(concurrency)
    if service_threads != concurrency:
        say(
            f"service threads: {service_threads} "
            f"(requested {concurrency}, host has {os.cpu_count()} cores)"
        )

    scenarios: List[dict] = []
    speedups: List[dict] = []
    service_stats: List[dict] = []
    round_failures = 0
    for workload, (db, machine) in databases.items():
        mix = WORKLOADS[workload]
        with Engine(
            db, machine=machine, workers=engine_workers, backend=backend
        ) as engine:
            for strategy in strategies:
                serial_rounds: List[LoadgenResult] = []
                served_rounds: List[LoadgenResult] = []
                stats_rounds: List[dict] = []
                for _ in range(rounds):
                    serial = run_serial_baseline(
                        engine,
                        mix,
                        strategy,
                        requests=clients * requests_per_client,
                        workload=workload,
                    )
                    say(serial.format_row())
                    served, stats = run_service_scenario(
                        engine,
                        mix,
                        strategy,
                        scenario="served",
                        workload=workload,
                        clients=clients,
                        concurrency=service_threads,
                        queue_depth=queue_depth,
                        requests_per_client=requests_per_client,
                        deadline=deadline,
                    )
                    say(served.format_row())
                    serial_rounds.append(serial)
                    served_rounds.append(served)
                    stats_rounds.append(stats)
                    round_failures += serial.failed + served.failed
                serial = max(serial_rounds, key=lambda r: r.qps)
                best = max(
                    range(len(served_rounds)),
                    key=lambda i: served_rounds[i].qps,
                )
                served = served_rounds[best]
                scenarios.extend([serial.to_dict(), served.to_dict()])
                stats = stats_rounds[best]
                stats["workload"] = workload
                stats["strategy"] = strategy
                service_stats.append(stats)
                speedup = served.qps / serial.qps if serial.qps else 0.0
                speedups.append(
                    {
                        "workload": workload,
                        "strategy": strategy,
                        "serial_qps": serial.qps,
                        "served_qps": served.qps,
                        "speedup": speedup,
                        "serial_qps_rounds": [
                            r.qps for r in serial_rounds
                        ],
                        "served_qps_rounds": [
                            r.qps for r in served_rounds
                        ],
                    }
                )
                say(
                    f"  best of {rounds} round(s): serial {serial.qps:.1f}"
                    f" q/s, served {served.qps:.1f} q/s"
                    f" (speedup {speedup:.2f})"
                )

    shedding = _run_shedding_demo(
        databases["micro-q1q2"],
        clients=max(clients, 8),
        requests_per_client=requests_per_client,
        backend=backend,
        say=say,
    )

    # Count every round's failures, not just the kept best rounds.
    failures = round_failures + shedding["loadgen"]["failed"]
    return {
        "config": {
            "rows": rows,
            "sf": sf,
            "seed": seed,
            "engine_workers": engine_workers,
            "concurrency": concurrency,
            "service_threads": service_threads,
            "queue_depth": queue_depth,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "deadline": deadline,
            "rounds": rounds,
            "strategies": list(strategies),
            "backend": backend,
            "transport": "in-process",
        },
        "dataset_cache": {
            "sources": sources,
            "stats": cache.stats.snapshot(),
            "dir": str(cache.cache_dir),
        },
        "scenarios": scenarios,
        "speedups": speedups,
        "service_stats": service_stats,
        "shedding": shedding,
        "failures": failures,
    }


def _run_shedding_demo(
    db_machine,
    *,
    clients: int,
    requests_per_client: int,
    backend: str,
    say,
) -> dict:
    """Deliberately undersized service under the full client fleet: the
    point is structured ``queue_full`` rejections with retry hints —
    not crashes, not hangs — and a queue that never exceeds its bound."""
    db, machine = db_machine
    mix = WORKLOADS["micro-q1q2"]
    with Engine(db, machine=machine, workers=1, backend=backend) as engine:
        result, stats = run_service_scenario(
            engine,
            mix,
            "swole",
            scenario="overload",
            workload="micro-q1q2",
            clients=clients,
            concurrency=1,
            queue_depth=2,
            requests_per_client=requests_per_client,
            deadline=0.5,
        )
    say(result.format_row())
    say(
        f"  overload demo: {result.shed}/{result.issued} shed "
        f"({result.shed_rate:.1%}), {result.timed_out} timed out, "
        f"{result.failed} failed"
    )
    return {"loadgen": result.to_dict(), "service_stats": stats}


def _run_connect(
    address: str,
    *,
    workload: str,
    strategies: Sequence[str],
    clients: int,
    requests_per_client: int,
    deadline: float,
    rounds: int,
    backend: str,
    say,
) -> dict:
    """Drive a remote ``python -m repro.server`` over TCP. Every
    request carries ``backend`` explicitly, so the measurement holds
    regardless of the remote server's ``--backend`` default."""
    host, _, port_text = address.partition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(
            f"--connect expects host:port, got {address!r}"
        ) from None
    if workload not in WORKLOADS:
        raise ReproError(
            f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}"
        )
    mix = WORKLOADS[workload]

    scenarios: List[dict] = []
    speedups: List[dict] = []
    round_failures = 0
    for strategy in strategies:
        # Warm-up (plan cache on the server) and readiness probe in one:
        # the first client retries until the server is listening.
        warm = ServiceClient(host, port, connect_retry_window=30.0)
        for _, spec in mix:
            warm.request(spec, strategy=strategy, backend=backend)
        warm.close()

        serial_rounds: List[LoadgenResult] = []
        served_rounds: List[LoadgenResult] = []
        for _ in range(rounds):
            serial = LoadgenResult(
                scenario="serial-tcp",
                workload=workload,
                strategy=strategy,
                clients=1,
                concurrency=1,
                queue_depth=0,
            )
            with ServiceClient(host, port) as client:
                drive_load(
                    lambda spec, strat, dl: client.request(
                        spec, strategy=strat, deadline=dl, backend=backend
                    ),
                    mix,
                    strategy,
                    clients=1,
                    requests_per_client=requests_per_client,
                    deadline=deadline,
                    result=serial,
                )
            say(serial.format_row())

            served = LoadgenResult(
                scenario="served-tcp",
                workload=workload,
                strategy=strategy,
                clients=clients,
                concurrency=-1,  # the remote server's; unknown here
                queue_depth=-1,
            )
            conns = [ServiceClient(host, port) for _ in range(clients)]
            stack = list(conns)
            try:
                local = threading.local()

                def issue(spec, strat, dl, _stack=stack):
                    conn = getattr(local, "conn", None)
                    if conn is None:
                        conn = local.conn = _stack.pop()
                    return conn.request(
                        spec, strategy=strat, deadline=dl, backend=backend
                    )

                drive_load(
                    issue,
                    mix,
                    strategy,
                    clients=clients,
                    requests_per_client=requests_per_client,
                    deadline=deadline,
                    result=served,
                )
            finally:
                for conn in conns:
                    conn.close()
            say(served.format_row())
            serial_rounds.append(serial)
            served_rounds.append(served)
            round_failures += serial.failed + served.failed
        serial = max(serial_rounds, key=lambda r: r.qps)
        served = max(served_rounds, key=lambda r: r.qps)
        scenarios.extend([serial.to_dict(), served.to_dict()])
        speedups.append(
            {
                "workload": workload,
                "strategy": strategy,
                "serial_qps": serial.qps,
                "served_qps": served.qps,
                "speedup": served.qps / serial.qps if serial.qps else 0.0,
                "serial_qps_rounds": [r.qps for r in serial_rounds],
                "served_qps_rounds": [r.qps for r in served_rounds],
            }
        )

    # Scrape the server's telemetry into the report: plan-cache and
    # dataset-cache hit rates, pool utilization, span timings, shed
    # counts. Older servers without the stats op just omit the section.
    server_stats = None
    try:
        with ServiceClient(host, port) as scraper:
            server_stats = scraper.stats()
    except ReproError as exc:
        say(f"stats scrape unavailable: {exc}")

    return {
        "config": {
            "connect": address,
            "workload": workload,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "deadline": deadline,
            "rounds": rounds,
            "strategies": list(strategies),
            "backend": backend,
            "transport": "tcp",
        },
        "scenarios": scenarios,
        "speedups": speedups,
        "shedding": None,
        "failures": round_failures,
        "server_stats": server_stats,
    }
