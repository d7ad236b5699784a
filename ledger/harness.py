"""One workload in one process: set up, time root ops, check answers.

Everything here runs in the workload subprocess ``ledger/run.py``
spawns. The untraced run gives the end-to-end metrics; the traced run
(:mod:`ledger.layers`) reuses the same context and root ops.

Measurement hygiene: ``time.perf_counter_ns`` is read immediately
around the root call and nothing else (answers are checked outside the
timed window); the collector runs before, not during, a measurement;
queries are always plans, never name strings; everything a context
opens is closed on every exit path.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns as now
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro import Engine
from repro.datagen import tpch as tpchgen
from repro.datagen.cache import DatasetCache
from repro.engine.machine import PAPER_MACHINE
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.plan.serde import plan_from_wire, plan_to_wire
from repro.server import QueryService, ServiceClient, TcpQueryServer
from repro.server.protocol import encode_value
from repro.tpch import logical_plan, reference_result

from . import stats
from .workloads import (
    ROOT_COMPILE,
    ROOT_EXECUTE,
    ROOT_REQUEST,
    ROOT_SIMULATE,
    Workload,
    cell_orders,
)

#: Untimed rounds before the first timed op.
WARMUP_ROUNDS = 3
#: Per-request budget of the serving workload (seconds).
DEADLINE_S = 2.0
#: With the collector off during measurement, cyclic garbage is swept
#: between rounds at this interval so ``peak_rss_mb`` measures the
#: program, not the pause.
GC_SWEEP_SECONDS = 1.0

#: Errors an op may end in and still leave the run going (counted in
#: ``failed``); anything else is a harness bug and stops the run.
OP_ERRORS = (ReproError, OSError)

#: The engines a context can hold: kind -> (backend, encoding). "cold"
#: is configured like "warm" but is a separate instance, so that
#: invalidating its plan cache leaves the warm engine warm.
ENGINE_KINDS = {
    "warm": ("vectorized", "auto"),
    "cold": ("vectorized", "auto"),
    "sim": ("instrumented", "auto"),
    "warm_off": ("vectorized", "off"),
    "sim_off": ("instrumented", "off"),
}
ROOT_ENGINE = {
    ROOT_EXECUTE: "warm",
    ROOT_REQUEST: "warm",
    ROOT_COMPILE: "cold",
    ROOT_SIMULATE: "sim",
}


@dataclass
class Cell:
    """One (query, strategy) pair with what its ops need."""

    query: str
    strategy: str
    plan: Any
    envelope: dict
    #: ``repro.tpch.reference_result`` (plain NumPy, independent of
    #: every compiler), normalised like a wire response.
    expected: Any

    @property
    def label(self) -> str:
        return f"{self.query}/{self.strategy}"


@dataclass
class Op:
    """A cell's root op. ``call`` is timed; ``prepare`` runs before it
    and ``check`` after it, both outside the timed window."""

    cell: Cell
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    prepare: Optional[Callable[[], None]] = None


class Context:
    """Everything one set-up opens: dataset, engines, server, client.

    ``close()`` shuts servers, engines and pools down and removes the
    cache directory; use it as a context manager.
    """

    def __init__(self, workload: Workload, cache_dir: Path) -> None:
        self.workload = workload
        self._stack = ExitStack()
        self._engines: Dict[str, Engine] = {}
        self._client: Optional[ServiceClient] = None
        self.service: Optional[QueryService] = None
        try:
            self.config = tpchgen.TpchConfig(
                scale_factor=workload.scale_factor
            )
            self._stack.callback(
                shutil.rmtree, cache_dir, ignore_errors=True
            )
            self.dataset_cache = DatasetCache(cache_dir=cache_dir)
            begin = now()
            self.db = self.dataset_cache.load("tpch", self.config)
            self.generate_store_s = (now() - begin) / 1e9
            # The machine model is scaled to the data, as the serving
            # entry point does, so both clocks run the same plans.
            self.machine = PAPER_MACHINE.scaled(self.config.machine_scale)
            #: The warm engine and the service report here; the other
            #: engines share a second private registry.
            self.registry = MetricsRegistry()
            self._aux_registry = MetricsRegistry()
            expected = {
                q: encode_value(reference_result(q, self.db))
                for q in workload.queries
            }
            self.cells = [
                Cell(q, s, logical_plan(q), plan_to_wire(logical_plan(q)),
                     expected[q])
                for q, s in workload.cells
            ]
            self.root_engine = self.engine(ROOT_ENGINE[workload.root])
            self.ops = [self._root_op(cell) for cell in self.cells]
        except BaseException:
            self.close()
            raise

    # -- lifetime --------------------------------------------------------

    def close(self) -> None:
        self._stack.close()

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- what the workload talks to --------------------------------------

    def engine(self, kind: str, *, workers: int = 1) -> Engine:
        """The engine of ``kind`` (see :data:`ENGINE_KINDS`), created
        on first use and shut down with the context."""
        key = kind if workers == 1 else f"{kind}x{workers}"
        engine = self._engines.get(key)
        if engine is None:
            backend, encoding = ENGINE_KINDS[kind]
            engine = Engine(
                self.db,
                machine=self.machine,
                workers=workers,
                backend=backend,
                encoding=encoding,
                registry=(
                    self.registry if kind == "warm" else self._aux_registry
                ),
            )
            self._stack.callback(engine.shutdown)
            self._engines[key] = engine
        return engine

    def client(self) -> ServiceClient:
        """One connection to an in-process TCP server over the warm
        engine (``concurrency=1``), started on first use."""
        if self._client is None:
            self.service = QueryService(
                self.engine("warm"), concurrency=1, registry=self.registry
            )
            server = TcpQueryServer(self.service).start()
            self._stack.callback(server.stop, 5.0)
            self._client = ServiceClient(server.host, server.port)
            self._stack.callback(self._client.close)
        return self._client

    def matches(self, cell: Cell, value: Any) -> bool:
        return encode_value(value) == cell.expected

    def response_ok(self, cell: Cell, response) -> bool:
        """Served, inside its deadline, with the reference answer."""
        return (
            response.ok
            and not response.metrics.get("deadline_missed")
            and response.value == cell.expected
        )

    # -- root ops --------------------------------------------------------

    def _root_op(self, cell: Cell) -> Op:
        root = self.workload.root
        engine = self.root_engine
        plan, strategy = cell.plan, cell.strategy
        if root == ROOT_REQUEST:
            client = self.client()
            return Op(
                cell,
                lambda: client.request(
                    plan, strategy=strategy, deadline=DEADLINE_S
                ),
                lambda response: self.response_ok(cell, response),
            )
        if root == ROOT_COMPILE:
            envelope = cell.envelope
            return Op(
                cell,
                # A fresh plan object per op: no id-memoised fingerprint.
                lambda: engine.compile(plan_from_wire(envelope), strategy),
                lambda compiled: self.matches(
                    cell, compiled.run(engine.session()).value
                ),
                prepare=engine.invalidate,
            )
        if root == ROOT_SIMULATE:
            cycles: List[float] = []

            def check(result) -> bool:
                # On the paper's clock the cycle count is part of the
                # answer: it must repeat exactly from op to op.
                cycles.append(result.metrics.total_cycles)
                return (
                    self.matches(cell, result.value)
                    and cycles[-1] == cycles[0]
                )

            return Op(cell, lambda: engine.execute(plan, strategy), check)
        return Op(
            cell,
            lambda: engine.execute(plan, strategy),
            lambda result: self.matches(cell, result.value),
        )


@dataclass
class Samples:
    """What a measurement collected: per-cell latencies of completed
    ops, and the failure count over everything attempted."""

    latencies_ns: List[List[int]]
    rounds: int = 0
    attempted: int = 0
    failed: int = 0

    @classmethod
    def empty(cls, n_cells: int) -> "Samples":
        return cls([[] for _ in range(n_cells)])

    def p50_geomean_ms(self) -> float:
        return stats.geomean(
            [stats.median(cell) / 1e6 for cell in self.latencies_ns]
        )

    def p90_geomean_ms(self) -> float:
        return stats.geomean(
            [stats.percentile(cell, 0.9) / 1e6 for cell in self.latencies_ns]
        )

    def throughput_qps(self) -> float:
        busy_ns = sum(sum(cell) for cell in self.latencies_ns)
        completed = sum(len(cell) for cell in self.latencies_ns)
        return completed / (busy_ns / 1e9)


def run_round(ops: List[Op], order: List[int], into: Samples) -> None:
    """Visit every cell once, timing the root call and nothing else."""
    for i in order:
        op = ops[i]
        if op.prepare is not None:
            op.prepare()
        into.attempted += 1
        try:
            begin = now()
            out = op.call()
            end = now()
        except OP_ERRORS:
            into.failed += 1
            continue
        into.latencies_ns[i].append(end - begin)
        if not op.check(out):
            into.failed += 1
    into.rounds += 1


class Budget:
    """How long a measurement runs: a fixed number of rounds (same
    samples on every run) or, as the benchmark contract asks, whole
    rounds until ``seconds`` have passed since the first check."""

    def __init__(
        self, *, seconds: Optional[float], rounds: Optional[int]
    ) -> None:
        if (seconds is None) == (rounds is None):
            raise ValueError("give exactly one of seconds= and rounds=")
        self.seconds = seconds
        self.rounds = rounds
        self._begin: Optional[float] = None
        self._last_sweep = time.monotonic()

    def spent(self, rounds_done: int) -> bool:
        if self.rounds is not None:
            return rounds_done >= self.rounds
        if self._begin is None:
            self._begin = time.monotonic()
        return time.monotonic() - self._begin >= self.seconds

    def sweep(self) -> None:
        """Collect cyclic garbage between rounds, at most once per
        :data:`GC_SWEEP_SECONDS`; automatic collection stays off."""
        if time.monotonic() - self._last_sweep >= GC_SWEEP_SECONDS:
            gc.collect()
            self._last_sweep = time.monotonic()


def measure(
    ops: List[Op], orders: Iterator[List[int]], budget: Budget
) -> Samples:
    """The timed section of an untraced run."""
    samples = Samples.empty(len(ops))
    gc.collect()
    gc.disable()
    try:
        while not budget.spent(samples.rounds):
            run_round(ops, next(orders), samples)
            budget.sweep()
    finally:
        gc.enable()
    return samples


def set_up(
    workload: Workload, scratch: Path, seed: int
) -> Tuple[Context, Iterator[List[int]]]:
    """Everything before the first timed op: empty cache directory,
    generate + store the dataset, engines, server, reference answers,
    warm-up rounds. Returns the live context and the round orders
    (past the warm-up)."""
    ctx = Context(workload, scratch / "cache")
    try:
        orders = cell_orders(len(ctx.ops), seed)
        warm = Samples.empty(len(ctx.ops))
        for _ in range(WARMUP_ROUNDS):
            run_round(ctx.ops, next(orders), warm)
        if warm.failed:
            raise ReproError(
                f"{workload.name}: {warm.failed} of {warm.attempted} "
                "warm-up ops failed or answered wrong"
            )
    except BaseException:
        ctx.close()
        raise
    return ctx, orders


def simulated_cycles(ctx: Context) -> Tuple[Dict[str, float], int]:
    """The workload's cells on the paper's clock: one instrumented run
    each, answer-checked. Returns cycles by cell label and the number
    of wrong answers."""
    engine = ctx.engine("sim")
    cycles: Dict[str, float] = {}
    wrong = 0
    for cell in ctx.cells:
        result = engine.execute(cell.plan, cell.strategy)
        cycles[cell.label] = result.metrics.total_cycles
        wrong += not ctx.matches(cell, result.value)
    return cycles, wrong


def swole_over_hybrid(
    workload: Workload, cycles: Dict[str, float]
) -> Dict[str, float]:
    """Per query: cycles(hybrid) / cycles(swole), Fig. 6's headline."""
    return {
        q: cycles[f"{q}/hybrid"] / cycles[f"{q}/swole"]
        for q in workload.queries
    }


def pin_to_one_cpu() -> Set[int]:
    """Pin this process (and the threads it starts) to one of its
    CPUs; returns the set it was allowed before. A closed loop with one
    client never runs two threads at once, and on one CPU a request's
    hand-offs between client, connection and service threads are plain
    context switches instead of cross-CPU wake-ups, whose cost on a
    virtual machine swings by a factor of two from run to run."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(
    workload: Workload,
    scratch: Path,
    seed: int,
    budget: Budget,
    process_start_ns: int,
) -> dict:
    """One process's share of an untraced run; returns its report
    (``ledger/run.py`` takes medians over the run's processes)."""
    pin_to_one_cpu()
    ctx, orders = set_up(workload, scratch, seed)
    with ctx:
        setup_s = (now() - process_start_ns) / 1e9
        samples = measure(ctx.ops, orders, budget)
        cycles, wrong = simulated_cycles(ctx)
    attempted = samples.attempted + len(cycles)
    failed = samples.failed + wrong
    speedups = swole_over_hybrid(workload, cycles)
    metrics = {
        "setup_s": setup_s,
        "cell_p50_geomean_ms": samples.p50_geomean_ms(),
        "throughput_qps": samples.throughput_qps(),
        "peak_rss_mb": peak_rss_mb(),
        "sim_cycles_geomean": stats.geomean(list(cycles.values())),
        "swole_over_hybrid_geomean": stats.geomean(list(speedups.values())),
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "traced": False,
        "rounds": samples.rounds,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "cells": {
            cell.label: {
                "samples": len(latencies),
                "p50_ms": stats.median(latencies) / 1e6,
                "p90_ms": stats.percentile(latencies, 0.9) / 1e6,
                "sim_cycles": cycles[cell.label],
            }
            for cell, latencies in zip(ctx.cells, samples.latencies_ns)
        },
    }
