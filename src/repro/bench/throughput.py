"""Closed-loop wall-clock throughput benchmark for the Engine.

Where the figure benches report *simulated* seconds (the paper's cost
models), this bench reports what the serving layer actually delivers:
real queries/sec and wall-latency percentiles of a warm
:class:`~repro.engine.facade.Engine` driven in a closed loop over
repeated mixed workloads (TPC-H Q1/Q6 plus the Fig. 7 microbenchmark
queries), per strategy.

Datasets load through :mod:`repro.datagen.cache`, so only the first
invocation on a machine pays generation; reruns report disk/memory
hits. Results are written machine-readable to ``BENCH_throughput.json``
to seed the performance trajectory across PRs.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..datagen import microbench as mb
from ..datagen import tpch as tpchgen
from ..datagen.cache import DatasetCache, dataset_cache
from ..engine import Engine
from ..engine.machine import PAPER_MACHINE
from ..engine.program import results_equal
from ..errors import ReproError
from ..tpch import logical_plan

#: Strategies measured by default (the paper's main series).
DEFAULT_STRATEGIES = ("datacentric", "hybrid", "swole")

#: Default output artifact.
DEFAULT_OUT = "BENCH_throughput.json"


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass
class WorkloadResult:
    """Throughput of one (workload, strategy, backend) closed loop."""

    workload: str
    strategy: str
    workers: int
    iterations: int
    queries: int
    total_seconds: float
    latencies: List[float] = field(default_factory=list, repr=False)
    plan_cache: Dict[str, float] = field(default_factory=dict)
    backend: str = "vectorized"

    @property
    def qps(self) -> float:
        return self.queries / self.total_seconds if self.total_seconds else 0.0

    @property
    def p50_ms(self) -> float:
        return percentile(sorted(self.latencies), 0.50) * 1e3

    @property
    def p95_ms(self) -> float:
        return percentile(sorted(self.latencies), 0.95) * 1e3

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "backend": self.backend,
            "workers": self.workers,
            "iterations": self.iterations,
            "queries": self.queries,
            "total_seconds": self.total_seconds,
            "qps": self.qps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "plan_cache": self.plan_cache,
        }

    def format_row(self) -> str:
        return (
            f"{self.workload:<14s} {self.strategy:<12s} "
            f"{self.backend:<12s} "
            f"{self.qps:>9.1f} q/s  p50 {self.p50_ms:>7.2f} ms  "
            f"p95 {self.p95_ms:>7.2f} ms  "
            f"plan-cache hit rate {self.plan_cache.get('hit_rate', 0.0):.2f}"
        )


def run_workload(
    engine: Engine,
    queries: Sequence[Tuple[str, object]],
    strategy: str,
    *,
    workers: int,
    iterations: int,
    warmup: int = 2,
    workload: str = "workload",
    backend: Optional[str] = None,
) -> WorkloadResult:
    """Drive ``engine`` in a closed loop over the query mix.

    One *iteration* issues every query in the mix once. ``warmup``
    iterations run first (filling the plan cache and starting the
    pool); plan-cache counters are snapshotted over the measured loop
    only. ``backend`` pins the execution backend per call (``None``
    uses the engine's default).
    """
    for _ in range(max(warmup, 0)):
        for _, query in queries:
            engine.execute(query, strategy, workers=workers, backend=backend)
    before = engine.cache_stats.snapshot()
    latencies: List[float] = []
    begin = time.perf_counter()
    for _ in range(iterations):
        for _, query in queries:
            start = time.perf_counter()
            engine.execute(query, strategy, workers=workers, backend=backend)
            latencies.append(time.perf_counter() - start)
    total = time.perf_counter() - begin
    after = engine.cache_stats.snapshot()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return WorkloadResult(
        workload=workload,
        strategy=strategy,
        workers=workers,
        iterations=iterations,
        queries=len(latencies),
        total_seconds=total,
        latencies=latencies,
        plan_cache={
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        },
        backend=backend if backend is not None else engine.backend,
    )


def run_throughput(
    *,
    rows: int = 200_000,
    sf: float = 0.01,
    workers: int = 4,
    iterations: int = 30,
    warmup: int = 2,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    out_path: Optional[str] = DEFAULT_OUT,
    cache: Optional[DatasetCache] = None,
    seed: Optional[int] = None,
    backend: str = "vectorized",
    compare_backends: bool = True,
    verbose: bool = True,
) -> dict:
    """Run the full throughput suite; return (and optionally write) the
    machine-readable report.

    ``seed`` overrides every dataset generator's seed (``None`` keeps
    each generator's own default), making a run byte-for-byte
    reproducible: the same seed yields the same fingerprints, datasets,
    and query answers.

    ``backend`` is the headline backend (the ``workloads`` section
    runs on it). With ``compare_backends``
    (the default) every (workload, strategy) cell additionally runs on
    the *other* backend, and the report carries a ``backend_speedup``
    section: vectorized over instrumented qps per cell, with a
    byte-equality check of the two backends' answers on the way in.
    """
    cache = cache or dataset_cache()
    say = print if verbose else (lambda *_args, **_kw: None)

    if seed is None:
        micro_config = mb.MicrobenchConfig(num_rows=rows)
        tpch_config = tpchgen.TpchConfig(scale_factor=sf)
    else:
        micro_config = mb.MicrobenchConfig(num_rows=rows, seed=seed)
        tpch_config = tpchgen.TpchConfig(scale_factor=sf, seed=seed)

    sources: Dict[str, str] = {}
    micro_db = cache.load("microbench", micro_config)
    sources["microbench"] = cache.last_source
    tpch_db = cache.load("tpch", tpch_config)
    sources["tpch"] = cache.last_source
    say(
        "datasets: "
        + ", ".join(f"{name}={src}" for name, src in sources.items())
    )

    micro_machine = PAPER_MACHINE.scaled(micro_config.scale_factor)
    tpch_machine = PAPER_MACHINE.scaled(tpch_config.machine_scale)

    measured_backends = [backend]
    if compare_backends:
        measured_backends.append(
            "instrumented" if backend == "vectorized" else "vectorized"
        )

    workloads: List[WorkloadResult] = []
    comparison: List[WorkloadResult] = []
    backend_speedup: List[dict] = []

    def measure(engine: Engine, mix, workload_name: str) -> None:
        for strategy in strategies:
            by_backend: Dict[str, WorkloadResult] = {}
            for bend in measured_backends:
                result = run_workload(
                    engine, mix, strategy,
                    workers=workers, iterations=iterations, warmup=warmup,
                    workload=workload_name, backend=bend,
                )
                by_backend[bend] = result
                (workloads if bend == backend else comparison).append(result)
                say(result.format_row())
            if len(by_backend) < 2:
                continue
            # The speed comparison is only meaningful if the two
            # backends agree bit for bit; check before reporting.
            for query_name, query in mix:
                pair = [
                    engine.execute(
                        query, strategy, workers=workers, backend=bend
                    )
                    for bend in ("instrumented", "vectorized")
                ]
                if not results_equal(pair[0], pair[1]):
                    raise ReproError(
                        f"backend answers diverged on {workload_name}/"
                        f"{query_name} under {strategy}"
                    )
            inst = by_backend["instrumented"]
            vec = by_backend["vectorized"]
            speedup = vec.qps / inst.qps if inst.qps else 0.0
            backend_speedup.append(
                {
                    "workload": workload_name,
                    "strategy": strategy,
                    "instrumented_qps": inst.qps,
                    "vectorized_qps": vec.qps,
                    "speedup": speedup,
                }
            )
            say(
                f"  vectorized over instrumented ({workload_name}, "
                f"{strategy}): {speedup:.2f}x"
            )

    tpch_mix = [("Q1", logical_plan("Q1")), ("Q6", logical_plan("Q6"))]
    micro_mix = [
        ("uQ1-mul", mb.q1(30, "mul")),
        ("uQ1-div", mb.q1(30, "div")),
        ("uQ2", mb.q2(30)),
    ]
    with Engine(tpch_db, machine=tpch_machine, workers=workers) as engine:
        measure(engine, tpch_mix, "tpch-q1q6")
    with Engine(micro_db, machine=micro_machine, workers=workers) as engine:
        measure(engine, micro_mix, "micro-q1q2")

    report = {
        "bench": "throughput",
        "unix_time": time.time(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "rows": rows,
            "sf": sf,
            "workers": workers,
            "iterations": iterations,
            "warmup": warmup,
            "seed": seed,
            "strategies": list(strategies),
            "backend": backend,
            "compare_backends": compare_backends,
        },
        "dataset_cache": {
            "sources": sources,
            "stats": cache.stats.snapshot(),
            "dir": str(cache.cache_dir),
        },
        "workloads": [w.to_dict() for w in workloads],
        "backend_comparison": [w.to_dict() for w in comparison],
        "backend_speedup": backend_speedup,
    }
    if out_path:
        Path(out_path).write_text(json.dumps(report, indent=1))
        say(f"wrote {out_path}")
    return report
