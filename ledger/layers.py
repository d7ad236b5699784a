"""The traced run: where an op's time goes, layer by layer.

Layers are the repo's packages. For every cell of the workload the
probe makes each layer call once per round through its public function
and records a span for it (see :mod:`ledger.trace`):

```
client.request                           one round trip over loopback
  server.protocol.request_encode
    plan.serde.to_wire
  server.protocol.request_decode
  server.service.execute                 same request, in process
    server.protocol.query_spec
    engine.execute
      engine.plan_cache.hit              Engine.compile on a warm key
        engine.plan_cache.key
      engine.session
      codegen.kernel                     reported: RunMetrics.wall_seconds
  server.protocol.response_encode
  server.protocol.response_decode
engine.compile                           decode the envelope, compile on a miss
  plan.serde.from_wire
  plan.ops.validate
  plan.ops.fingerprint
  plan.passes.run_passes
  codegen.lower.lower_plan
  codegen.vectorize.compile_physical
    storage.scan_view                    one per pipeline
engine.execute.instrumented              the same cell on the paper's clock
  codegen.physexec.run                   reported: RunMetrics.wall_seconds
engine.execute.encoding_auto             the warm engine again, back to back with
  codegen.kernel.encoding_auto           reported
engine.execute.encoding_off              the same cell compiled with encoding="off"
  codegen.kernel.encoding_off            reported
obs.*                                    telemetry calls, as _record_run labels them
```

The workload's root op is one of these spans; the others say what the
layers it bypasses would cost on the same cells. Kernel time is never
replayed: it is what the executor reported about the very call it ran
in, because a kernel's wall time depends on the allocator and cache
state it finds (see "baseline observations" in ``ledger/README.md``).
Probe rounds alternate with untraced rounds of the root op, so the
traced run also yields ``trace.overhead_share``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
from pathlib import Path
from time import perf_counter_ns as now
from typing import Any, Dict, List, Tuple

from repro.bench.tpch import PAPER_SWOLE_SPEEDUPS
from repro.codegen.lower import lower_plan
from repro.codegen.vectorize import compile_physical
from repro.engine.cancellation import CancelToken
from repro.engine.plan_cache import plan_key
from repro.obs import span as obs_span
from repro.plan.ops import plan_fingerprint, validate
from repro.plan.passes import run_passes
from repro.plan.serde import plan_from_wire, plan_to_wire
from repro.server.protocol import (
    QueryRequest,
    QueryResponse,
    dump_line,
    load_line,
    parse_query_spec,
    parse_request,
)
from repro.tpch import logical_plan

from . import stats
from .harness import (
    DEADLINE_S,
    Budget,
    Cell,
    Context,
    Samples,
    pin_to_one_cpu,
    run_round,
    set_up,
    swole_over_hybrid,
)
from .trace import Tracer
from .workloads import ROOT_EXECUTE, Workload

#: Telemetry calls per timed batch (one call is too short to time).
OBS_BATCH = 10
#: Runs per side of the morsel-scaling probe.
MORSEL_RUNS = 5
#: Event kinds the ledger totals (``RunMetrics.event_counts`` keys).
EVENT_KINDS = ("SeqRead", "CondRead", "RandomAccess", "Branch", "Compute")
#: A strategy is wall-competitive when within this of the fastest.
BEST_TOLERANCE = 1.05

_COLUMN_READ = re.compile(r"\bv\['(\w+)'\]")


def _wall_ns(result) -> int:
    """The executor's own clock around the kernel of ``result``."""
    return int(result.metrics.wall_seconds * 1e9)


def _reported_ns(response) -> int:
    """The same clock, as a service response carries it."""
    return int(response.metrics.get("wall_seconds", 0.0) * 1e9)


def _measured_ns(span) -> int:
    """What the call behind ``span`` took on the probe's clock."""
    return span.attrs.get("measured_ns", span.duration_ns)


class LayerProbe:
    """Static facts once per cell, then one span forest per op."""

    def __init__(self, ctx: Context, tracer: Tracer) -> None:
        self.ctx = ctx
        self.tracer = tracer
        self.warm = ctx.engine("warm")
        self.warm_off = ctx.engine("warm_off")
        self.cold = ctx.engine("cold")
        self.sim = ctx.engine("sim")
        self.client = ctx.client()
        self.service = ctx.service
        #: Library callers hand ``Engine.execute`` a long-lived plan;
        #: the service hands it a freshly decoded one plus a token.
        self.direct = ctx.workload.root == ROOT_EXECUTE
        self.attempted = 0
        self.failed = 0
        self.queue_wait_ns: List[float] = []
        self.facts = {cell.label: self._facts(cell) for cell in ctx.cells}

    def _verify(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    # -- once per cell ---------------------------------------------------

    def _facts(self, cell: Cell) -> Dict[str, Any]:
        """Counts that do not depend on timing; every one must repeat
        exactly from run to run."""
        ctx, db = self.ctx, self.ctx.db
        plan, strategy = cell.plan, cell.strategy
        bound, decisions, notes = run_passes(
            plan, db, ctx.machine, strategy, None, encoding="auto"
        )
        physical = lower_plan(bound, decisions, db, strategy)
        compiled = self.warm.compile(plan, strategy)
        fallback = "backend_fallback" in compiled.notes
        code_bytes = decoded_bytes = source_lines = 0
        if not fallback:
            # A vectorized program's source is its generated kernels,
            # one ``_kernel_<i>`` per pipeline.
            source_lines = len(compiled.source.splitlines())
            kernels = compiled.source.split("def _kernel_")[1:]
            for pipe, text in zip(physical.pipelines, kernels):
                encoded = {column for column, _ in pipe.encodings}
                table = db.table(pipe.table)
                for column in set(_COLUMN_READ.findall(text)):
                    enc = table.column(column).encoding
                    decoded_bytes += enc.decoded_width
                    code_bytes += (
                        enc.width if column in encoded else enc.decoded_width
                    )
        simulated = self.sim.execute(plan, strategy)
        simulated_off = ctx.engine("sim_off").execute(plan, strategy)
        self._verify(ctx.matches(cell, simulated.value))
        self._verify(ctx.matches(cell, simulated_off.value))
        request = QueryRequest(
            query=plan, strategy=strategy, deadline=DEADLINE_S
        )
        response = self.service.execute(request)
        self._verify(ctx.response_ok(cell, response))
        return {
            "passes_applied": sum(n.action == "applied" for n in notes),
            "passes_declined": sum(n.action == "declined" for n in notes),
            "physical_ops": sum(len(p.ops) for p in physical.pipelines),
            "source_lines": source_lines,
            "fallback": fallback,
            "code_bytes": code_bytes,
            "decoded_bytes": decoded_bytes,
            "scan_rows": db.table(physical.pipelines[-1].table).num_rows,
            "estimated_cycles": self.sim.compile(plan, strategy).notes[
                "estimated_cycles"
            ],
            "sim_cycles": simulated.metrics.total_cycles,
            "sim_cycles_encoding_off": simulated_off.metrics.total_cycles,
            "sim_events": dict(simulated.metrics.event_counts),
            "request_bytes": len(dump_line(request.to_wire())),
            # Without the per-request ``metrics`` block, whose float
            # digits vary: id, status and the answer repeat exactly.
            "response_bytes": len(
                dump_line(
                    QueryResponse(
                        response.id, response.status, response.value
                    ).to_wire()
                )
            ),
        }

    # -- once per op -----------------------------------------------------

    def probe(self, cell: Cell, op: int) -> None:
        """Call every layer once for ``cell`` and record the spans."""
        self._probe_serving(cell, op)
        self._probe_compile(cell, op)
        self._probe_clocks(cell, op)

    def _probe_serving(self, cell: Cell, op: int) -> None:
        """One round trip over loopback TCP, then its stages again."""
        ctx, tr, warm = self.ctx, self.tracer, self.warm
        plan, strategy = cell.plan, cell.strategy

        begin = now()
        response = self.client.request(
            plan, strategy=strategy, deadline=DEADLINE_S
        )
        end = now()
        self._verify(ctx.response_ok(cell, response))
        # The kernel as it ran inside this round trip. A replayed call
        # below runs the kernel again in whatever state it finds, so
        # only its non-kernel part transfers: each is re-based to this
        # kernel time (``measured_ns`` keeps what the replay took).
        kernel = _reported_ns(response)
        rtt = tr.measured(
            "client.request", op, begin, end, cell=cell.label,
            kernel_ns=kernel,
        )
        self.queue_wait_ns.append(
            response.metrics.get("queue_wait_seconds", 0.0) * 1e9
        )

        request = QueryRequest(
            query=plan, strategy=strategy, deadline=DEADLINE_S
        )
        begin = now()
        line = dump_line(request.to_wire())
        encode = tr.child(
            rtt, "server.protocol.request_encode", now() - begin
        )
        begin = now()
        plan_to_wire(plan)
        tr.child(encode, "plan.serde.to_wire", now() - begin)

        begin = now()
        parsed = parse_request(load_line(line))
        tr.child(rtt, "server.protocol.request_decode", now() - begin)

        begin = now()
        served = self.service.execute(parsed)
        duration = now() - begin
        self._verify(ctx.response_ok(cell, served))
        serve = tr.child(
            rtt, "server.service.execute",
            duration - _reported_ns(served) + kernel, measured_ns=duration,
        )

        begin = now()
        decoded = parse_query_spec(parsed.query)
        tr.child(serve, "server.protocol.query_spec", now() - begin)

        if self.direct:
            query, extra = plan, {}
        else:
            query = decoded
            extra = {"cancel": CancelToken.after(DEADLINE_S)}
        begin = now()
        result = warm.execute(query, strategy, **extra)
        duration = now() - begin
        self._verify(ctx.matches(cell, result.value))
        execute = tr.child(
            serve, "engine.execute", duration - _wall_ns(result) + kernel,
            measured_ns=duration, kernel_ns=_wall_ns(result),
        )
        begin = now()
        warm.compile(query, strategy)
        hit = tr.child(execute, "engine.plan_cache.hit", now() - begin)
        begin = now()
        plan_key(
            query, strategy, warm.machine, warm.tile, "vectorized", 0,
            warm.encoding,
        )
        tr.child(hit, "engine.plan_cache.key", now() - begin)
        begin = now()
        warm.session()
        tr.child(execute, "engine.session", now() - begin)
        tr.child(execute, "codegen.kernel", kernel, source="reported")

        begin = now()
        out_line = dump_line(served.to_wire())
        tr.child(rtt, "server.protocol.response_encode", now() - begin)
        begin = now()
        QueryResponse.from_wire(load_line(out_line))
        tr.child(rtt, "server.protocol.response_decode", now() - begin)

        self._probe_obs(cell, op, result.metrics)

    def _probe_compile(self, cell: Cell, op: int) -> None:
        """The plan-cache-miss path, then its stages again."""
        ctx, tr, cold, db = self.ctx, self.tracer, self.cold, self.ctx.db
        strategy = cell.strategy

        cold.invalidate()
        begin = now()
        program = cold.compile(plan_from_wire(cell.envelope), strategy)
        end = now()
        miss = tr.measured("engine.compile", op, begin, end, cell=cell.label)
        self._verify(ctx.matches(cell, program.run(cold.session()).value))

        begin = now()
        fresh = plan_from_wire(cell.envelope)
        tr.child(miss, "plan.serde.from_wire", now() - begin)
        begin = now()
        validate(fresh)
        tr.child(miss, "plan.ops.validate", now() - begin)
        begin = now()
        plan_fingerprint(fresh)
        tr.child(miss, "plan.ops.fingerprint", now() - begin)
        begin = now()
        bound, decisions, _ = run_passes(
            fresh, db, ctx.machine, strategy, None, encoding="auto"
        )
        tr.child(miss, "plan.passes.run_passes", now() - begin)
        begin = now()
        physical = lower_plan(bound, decisions, db, strategy)
        tr.child(miss, "codegen.lower.lower_plan", now() - begin)
        if self.facts[cell.label]["fallback"]:
            return
        begin = now()
        compile_physical(physical, db, name=fresh.name)
        vectorize = tr.child(
            miss, "codegen.vectorize.compile_physical", now() - begin
        )
        for pipe in physical.pipelines:
            begin = now()
            db.scan_view(pipe.table, pipe.encodings)
            tr.child(vectorize, "storage.scan_view", now() - begin)

    def _probe_clocks(self, cell: Cell, op: int) -> None:
        """The same cell on the paper's clock, then on the wall clock
        with and without encoded access paths — that pair back to back,
        in an order that alternates from op to op, so neither side
        always inherits the other's allocator state."""
        ctx, tr = self.ctx, self.tracer
        pair = [("auto", self.warm), ("off", self.warm_off)]
        if op % 2:
            pair.reverse()
        for name, kernel, engine in [
            ("engine.execute.instrumented", "codegen.physexec.run", self.sim)
        ] + [
            (f"engine.execute.encoding_{mode}",
             f"codegen.kernel.encoding_{mode}", engine)
            for mode, engine in pair
        ]:
            begin = now()
            result = engine.execute(cell.plan, cell.strategy)
            end = now()
            self._verify(ctx.matches(cell, result.value))
            root = tr.measured(
                name, op, begin, end, cell=cell.label,
                kernel_ns=_wall_ns(result),
            )
            tr.child(root, kernel, _wall_ns(result), source="reported")

    def _probe_obs(self, cell: Cell, op: int, metrics) -> None:
        """Telemetry calls with the label sets ``_record_run`` uses."""
        tr, reg = self.tracer, self.ctx.registry
        labels = {"strategy": cell.strategy, "backend": "vectorized"}
        batch = range(OBS_BATCH)

        begin = now()
        for _ in batch:
            reg.counter("queries_total", **labels).inc()
        end = now()
        tr.measured("obs.counter_inc", op, begin, end)

        begin = now()
        for _ in batch:
            reg.histogram(
                "span_seconds", stage="execute", **labels
            ).observe(metrics.wall_seconds)
        end = now()
        tr.measured("obs.histogram_observe", op, begin, end)

        begin = now()
        for _ in batch:
            with obs_span("compile", reg, **labels):
                pass
        end = now()
        tr.measured("obs.span", op, begin, end)

        fingerprint = plan_fingerprint(cell.plan)
        begin = now()
        for _ in batch:
            reg.slow_log.record(
                fingerprint=fingerprint,
                strategy=cell.strategy,
                wall_seconds=metrics.wall_seconds,
                wall_nanos=int(metrics.wall_seconds * 1e9),
                backend="vectorized",
                plan_cache=metrics.plan_cache,
                workers=metrics.workers,
                morsels=metrics.morsels,
                parallel=metrics.parallel,
                total_cycles=metrics.total_cycles,
                event_counts=dict(metrics.event_counts),
            )
        end = now()
        tr.measured("obs.slowlog_record", op, begin, end)

        begin = now()
        reg.snapshot()
        end = now()
        tr.measured("obs.snapshot", op, begin, end)


# -- probes that run once per traced run -----------------------------------


def datagen_probe(ctx: Context) -> Dict[str, float]:
    """Disk and memory layers of the dataset cache the set-up filled."""
    cache = ctx.dataset_cache
    cache.clear_memory()
    begin = now()
    cache.load("tpch", ctx.config)
    disk_load_s = (now() - begin) / 1e9
    cache.load("tpch", ctx.config)  # the memory layer
    return {
        "datagen.cache.generate_store_s": ctx.generate_store_s,
        "datagen.cache.disk_load_s": disk_load_s,
        "datagen.cache.hit_rate": cache.stats.hit_rate,
    }


def morsel_probe(ctx: Context) -> float:
    """Q1/hybrid wall at ``workers=1`` over ``workers=2``."""
    plan = logical_plan("Q1")
    walls = []
    for workers in (1, 2):
        engine = ctx.engine("warm", workers=workers)
        engine.execute(plan, "hybrid")
        runs = []
        for _ in range(MORSEL_RUNS):
            begin = now()
            engine.execute(plan, "hybrid")
            runs.append(now() - begin)
        walls.append(stats.median(runs))
    return walls[0] / walls[1]


# -- from spans to per-layer metrics ---------------------------------------


def _us(values: List[float]) -> float:
    return stats.median(values) / 1e3


def _ms(values: List[float]) -> float:
    return stats.median(values) / 1e6


def layer_metrics(
    probe: LayerProbe, untraced: Samples, once: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """Every per-layer metric of one traced run (``once`` holds the
    ones probed once per run), plus the per-cell table that backs the
    geomeans."""
    ctx, tracer = probe.ctx, probe.tracer
    workload, facts = ctx.workload, probe.facts
    durations = tracer.durations()
    selfs = tracer.self_times()
    cells = [cell.label for cell in ctx.cells]
    # The cell of a span is the cell of its op's round trip.
    op_cell = {
        s.op: s.attrs["cell"]
        for s in tracer.spans
        if s.name == "client.request"
    }

    def total(fact: str) -> float:
        return sum(facts[c][fact] for c in cells)

    def cell_medians(name: str, attr: str = "") -> Dict[str, float]:
        """Per cell: the median over ops of what span ``name`` took
        (or of its attribute ``attr``), in ns."""
        by_cell: Dict[str, List[int]] = {}
        for span in tracer.spans:
            if span.name == name:
                by_cell.setdefault(op_cell[span.op], []).append(
                    span.attrs[attr] if attr else _measured_ns(span)
                )
        return {cell: stats.median(v) for cell, v in by_cell.items()}

    root_ns = cell_medians(workload.root)
    # The vectorized kernel as a library caller gets it: the executor's
    # clock inside the probe's own Engine.execute call.
    kernel_ns = cell_medians("engine.execute", "kernel_ns")
    kernel_auto_ns = cell_medians("codegen.kernel.encoding_auto")
    kernel_off_ns = cell_medians("codegen.kernel.encoding_off")
    cycles = {c: facts[c]["sim_cycles"] for c in cells}
    speedups = swole_over_hybrid(workload, cycles)
    wall_ratio = {c: kernel_auto_ns[c] / kernel_off_ns[c] for c in cells}
    cycle_ratio = {
        c: cycles[c] / facts[c]["sim_cycles_encoding_off"] for c in cells
    }
    agree = 0
    for q in workload.queries:
        by_cycles = min(workload.strategies, key=lambda s: cycles[f"{q}/{s}"])
        fastest = min(kernel_ns[f"{q}/{s}"] for s in workload.strategies)
        agree += kernel_ns[f"{q}/{by_cycles}"] <= BEST_TOLERANCE * fastest
    roots = [s for s in tracer.spans if s.name == workload.root]
    sims = [
        s for s in tracer.spans if s.name == "engine.execute.instrumented"
    ]
    measured = {
        name: [_measured_ns(s) for s in tracer.spans if s.name == name]
        for name in ("engine.execute", "server.service.execute")
    }
    execute_self = selfs["engine.execute"]
    execute_all = durations["engine.execute"]
    service = ctx.service.stats.snapshot()
    obs_call = {
        name: [d / OBS_BATCH for d in durations[f"obs.{name}"]]
        for name in (
            "counter_inc", "histogram_observe", "span", "slowlog_record"
        )
    }

    m = dict(once)
    m.update({
        "storage.encoded_byte_ratio": (
            total("code_bytes") / total("decoded_bytes")
        ),
        "storage.scan_view_us": _us(durations["storage.scan_view"]),
        "plan.serde.to_wire_us": _us(durations["plan.serde.to_wire"]),
        "plan.serde.from_wire_us": _us(durations["plan.serde.from_wire"]),
        "plan.ops.fingerprint_us": _us(durations["plan.ops.fingerprint"]),
        "plan.ops.validate_us": _us(durations["plan.ops.validate"]),
        "plan.passes.run_passes_ms": _ms(durations["plan.passes.run_passes"]),
        "plan.passes.applied": total("passes_applied"),
        "plan.passes.declined": total("passes_declined"),
        "plan.passes.estimate_over_sim": stats.geomean([
            facts[c]["estimated_cycles"] / cycles[c]
            for c in cells
            if facts[c]["estimated_cycles"]
        ]),
        "codegen.lower.lower_plan_ms": _ms(
            durations["codegen.lower.lower_plan"]
        ),
        "codegen.vectorize.compile_physical_ms": _ms(
            durations["codegen.vectorize.compile_physical"]
        ),
        "codegen.lower.physical_ops": total("physical_ops"),
        "codegen.vectorize.source_lines": total("source_lines"),
        "codegen.vectorize.fallbacks": total("fallback"),
        "codegen.kernel_geomean_ms": stats.geomean(
            [kernel_ns[c] / 1e6 for c in cells]
        ),
        # A compile runs no kernel: its root span carries no kernel_ns.
        "codegen.kernel_share": stats.median([
            s.attrs.get("kernel_ns", 0) / _measured_ns(s) for s in roots
        ]),
        "codegen.encoding_wall_ratio": stats.geomean(
            list(wall_ratio.values())
        ),
        "codegen.encoding_wall_ratio_max": max(wall_ratio.values()),
        "codegen.encoding_cycle_ratio": stats.geomean(
            list(cycle_ratio.values())
        ),
        "codegen.physexec.host_ns_per_row": stats.median([
            s.attrs["kernel_ns"] / facts[s.attrs["cell"]]["scan_rows"]
            for s in sims
        ]),
        "engine.plan_cache.key_us": _us(durations["engine.plan_cache.key"]),
        "engine.plan_cache.hit_us": _us(durations["engine.plan_cache.hit"]),
        "engine.session_us": _us(durations["engine.session"]),
        "engine.execute_us": _us(measured["engine.execute"]),
        "engine.execute_self_us": _us(execute_self),
        "engine.execute_self_share": stats.median(
            [s / d for s, d in zip(execute_self, execute_all)]
        ),
        "engine.compile_miss_ms": _ms(durations["engine.compile"]),
        "engine.compile_self_ms": _ms(selfs["engine.compile"]),
        "engine.sim.cycles_total": sum(cycles.values()),
        **{
            f"engine.sim.events.{kind}": sum(
                facts[c]["sim_events"].get(kind, 0) for c in cells
            )
            for kind in EVENT_KINDS
        },
        "engine.machine.paper_speedup_log_error": sum(
            abs(math.log(speedups[q] / PAPER_SWOLE_SPEEDUPS[q]))
            for q in workload.queries
        ) / len(workload.queries),
        "engine.sim_wall_rank_corr": stats.spearman(
            [cycles[c] for c in cells], [kernel_ns[c] for c in cells]
        ),
        "engine.sim_wall_best_agreement": agree / len(workload.queries),
        "obs.counter_inc_us": _us(obs_call["counter_inc"]),
        "obs.histogram_observe_us": _us(obs_call["histogram_observe"]),
        "obs.span_us": _us(obs_call["span"]),
        "obs.slowlog_record_us": _us(obs_call["slowlog_record"]),
        "obs.snapshot_ms": _ms(durations["obs.snapshot"]),
        **{
            f"server.protocol.{stage}_us": _us(
                durations[f"server.protocol.{stage}"]
            )
            for stage in (
                "request_encode", "request_decode", "query_spec",
                "response_encode", "response_decode",
            )
        },
        "server.protocol.request_bytes": total("request_bytes") / len(cells),
        "server.protocol.response_bytes": (
            total("response_bytes") / len(cells)
        ),
        "server.service.execute_us": _us(measured["server.service.execute"]),
        "server.service.self_us": _us(selfs["server.service.execute"]),
        "server.service.queue_wait_us": _us(probe.queue_wait_ns),
        **{
            f"server.service.{outcome}": service[outcome]
            for outcome in ("shed", "coalesced", "timed_out", "failed")
        },
        "server.tcp.request_us": _us(durations["client.request"]),
        "server.tcp.self_us": _us(selfs["client.request"]),
        # Tail latency of the root op, from the untraced rounds of this
        # run: reported here, ungated (see ledger/README.md).
        "cell_p90_geomean_ms": untraced.p90_geomean_ms(),
        "trace.overhead_share": (
            stats.geomean([root_ns[c] for c in cells])
            / stats.geomean(
                [stats.median(v) for v in untraced.latencies_ns]
            )
            - 1.0
        ),
        "trace.reconcile_gap_max": max(
            max(stats.median(loads) - 1.0, 0.0)
            for loads in tracer.child_load().values()
        ),
    })

    table = {
        c: {
            "root_p50_ms": root_ns[c] / 1e6,
            "kernel_p50_ms": kernel_ns[c] / 1e6,
            "kernel_encoding_off_p50_ms": kernel_off_ns[c] / 1e6,
            "encoding_wall_ratio": wall_ratio[c],
            "encoding_cycle_ratio": cycle_ratio[c],
            **{k: v for k, v in facts[c].items() if k != "sim_events"},
        }
        for c in cells
    }
    return m, table


def run_traced(
    workload: Workload,
    scratch: Path,
    seed: int,
    budget: Budget,
    trace_path: Path,
) -> dict:
    """The traced run of one workload; returns its report and writes
    the spans to ``trace_path``."""
    allowed = pin_to_one_cpu()
    ctx, orders = set_up(workload, scratch, seed)
    with ctx:
        tracer = Tracer()
        probe = LayerProbe(ctx, tracer)
        once = datagen_probe(ctx)
        # The one probe that needs a second CPU gets them all back.
        os.sched_setaffinity(0, allowed)
        try:
            once["engine.executor.morsel_ratio_2w"] = morsel_probe(ctx)
        finally:
            pin_to_one_cpu()
        cache = ctx.root_engine.cache_stats
        hits, misses = cache.hits, cache.misses
        untraced = Samples.empty(len(ctx.ops))
        op = 0
        gc.collect()
        gc.disable()
        try:
            while not budget.spent(untraced.rounds):
                order = next(orders)
                run_round(ctx.ops, order, untraced)
                for i in order:
                    probe.probe(ctx.cells[i], op)
                    op += 1
                budget.sweep()
        finally:
            gc.enable()
        hits, misses = cache.hits - hits, cache.misses - misses
        once["engine.plan_cache.hit_rate"] = hits / (hits + misses)
        metrics, table = layer_metrics(probe, untraced, once)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "rounds": untraced.rounds,
                "cells": table,
                "spans": tracer.to_list(),
            },
            fh,
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "traced": True,
        "rounds": untraced.rounds,
        "attempted": untraced.attempted + probe.attempted,
        "failed": untraced.failed + probe.failed,
        "metrics": metrics,
        "cells": table,
        "trace_file": str(trace_path),
    }
