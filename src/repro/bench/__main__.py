"""Command-line figure regenerator: ``python -m repro.bench <figure>``.

Figures: fig2, fig6, fig8, fig9, fig10, fig11, fig12, all.
Use ``--rows`` / ``--sf`` to trade fidelity for speed and
``--plan-cache cold`` to force recompilation between sweep points.
Figures report the simulated seconds of one serial pass. ``--quick``
runs a small smoke suite: one fig8 panel plus a wall-clock morsel
executor and plan-cache demonstration.

``--serve-bench`` runs the query-service load generator instead
(closed-loop client fleet against an admission-controlled
:class:`~repro.server.service.QueryService`; pass ``--connect
host:port`` to drive a running ``python -m repro.server``) and writes
``BENCH_serving.json``; ``--adapt-bench`` and ``--shard-bench`` write
``BENCH_adaptive.json`` and ``BENCH_shard.json``. ``--seed`` pins
every dataset generator's seed so a report reproduces its datasets
and answers byte-for-byte. Generated datasets are
cached under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro/datasets``)
by every mode, so reruns skip datagen.
"""

from __future__ import annotations

import argparse

from ..datagen import microbench as mb
from ..datagen import tpch as tpchgen
from ..datagen.cache import load_dataset
from . import microbench as micro
from . import tpch as tpchbench


def _print(block: str) -> None:
    print(block)
    print()


def run_figure(
    name: str, rows: int, sf: float, plan_cache: str = "warm"
) -> None:
    config = mb.MicrobenchConfig(num_rows=rows)
    par = dict(plan_cache=plan_cache)
    if name == "fig2":
        from ..core.planner import technique_matrix

        print("Fig 2: SWOLE technique summary")
        for technique, info in technique_matrix().items():
            print(
                f"  {technique:<20s} §{info['section']:<6s} "
                f"{info['operators']:<40s} {info['heuristics']}"
            )
        print()
        return
    if name == "fig6":
        _print(
            tpchbench.run_fig6(
                tpchgen.TpchConfig(scale_factor=sf), **par
            ).format_table()
        )
        return
    if name == "fig8":
        for op in ("mul", "div"):
            _print(micro.fig8(op, config=config, **par).format_table())
        return
    if name == "fig9":
        for cardinality in (10, 1_000, 100_000, 10_000_000):
            _print(
                micro.fig9(cardinality, config=config, **par).format_table()
            )
        return
    if name == "fig10":
        for col in ("r_b", "r_x"):
            _print(micro.fig10(col, config=config, **par).format_table())
        return
    if name == "fig11":
        for side, fixed in (
            ("probe", 10),
            ("probe", 90),
            ("build", 10),
            ("build", 90),
        ):
            _print(
                micro.fig11(side, fixed, config=config, **par).format_table()
            )
        return
    if name == "fig12":
        for s_rows in (mb.PAPER_S_SMALL, mb.PAPER_S_LARGE):
            _print(micro.fig12(s_rows, config=config, **par).format_table())
        return
    raise SystemExit(f"unknown figure {name!r}")


def run_quick() -> None:
    """CI smoke run: tiny fig8 panel + executor and plan-cache demos.

    The morsel demo runs on the vectorized backend at 4 workers and
    reports wall time: simulated cycles are one serial pass.
    """
    from ..engine import Engine, ExecutionKnobs

    workers = 4
    config = mb.MicrobenchConfig(num_rows=50_000, s_rows=500, c_cardinality=32)
    _print(
        micro.fig8(
            "mul", config=config, selectivities=(10, 50, 90)
        ).format_table()
    )

    db = load_dataset("microbench", config)
    machine = micro.scaled_machine(config)
    # A pinned morsel size fans the small demo scan out past the
    # vectorized backend's fan-out floor.
    engine = Engine(
        db,
        machine=machine,
        workers=workers,
        knobs=ExecutionKnobs(morsel_rows=4096),
    )
    query = mb.q1(50)

    serial = engine.execute(query, "swole", workers=1)
    parallel = engine.execute(query, "swole", workers=workers)
    assert serial.value == parallel.value, "parallel result diverged"
    print(f"morsel executor ({workers} workers, uQ1 scan):")
    print(parallel.metrics.describe())
    print()

    warm = engine.execute(query, "swole", workers=workers)
    stats = engine.cache_stats
    print(
        f"plan cache: first run {serial.metrics.plan_cache}, "
        f"warm run {warm.metrics.plan_cache} "
        f"(hits={stats.hits} misses={stats.misses} -> "
        f"{stats.misses} compilation(s) for "
        f"{stats.hits + stats.misses} executions)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument(
        "figures",
        nargs="*",
        default=[],
        help="fig2 fig6 fig8 fig9 fig10 fig11 fig12, or 'all'",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=None,
        help="microbench R rows (paper: 100M; caches scale to match; "
        "default 1M for figures, 200K for --serve-bench, 400K for "
        "--adapt-bench)",
    )
    parser.add_argument(
        "--sf",
        type=float,
        default=0.01,
        help="TPC-H scale factor (paper: 10; caches scale to match)",
    )
    parser.add_argument(
        "--plan-cache",
        choices=("warm", "cold"),
        default="warm",
        help="'warm' reuses compiled plans across a sweep; 'cold' "
        "recompiles at every point",
    )
    parser.add_argument(
        "--backend",
        choices=("instrumented", "vectorized"),
        default="vectorized",
        help="execution backend for --serve-bench (figures always use "
        "the instrumented backend: their y-axis is the paper's simulated "
        "seconds; --quick's morsel demo runs vectorized)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small smoke suite (CI): tiny fig8 + executor/cache demos; "
        "with a --*-bench flag, shrinks that bench instead",
    )
    parser.add_argument(
        "--serve-bench",
        action="store_true",
        help="query-service load generator: qps, tail latency, shed and "
        "deadline-miss rates (writes --out, default BENCH_serving.json)",
    )
    parser.add_argument(
        "--adapt-bench",
        action="store_true",
        help="closed-loop adaptation bench: clustered data defeats the "
        "prefix-sample estimates, a mid-run selectivity shift must "
        "trigger a drift-driven recompile and recover throughput "
        "(writes --out, default BENCH_adaptive.json)",
    )
    parser.add_argument(
        "--shard-bench",
        action="store_true",
        help="multi-process shard executor bench: serial/threads/shards "
        "closed-loop throughput scenarios (writes --out, default "
        "BENCH_shard.json)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="worker processes for --shard-bench",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="dataset generator seed for the --*-bench modes "
        "(default: each generator's own; pin for byte-reproducible runs)",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="with --serve-bench: drive a running `python -m "
        "repro.server` over TCP instead of an in-process service",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=8,
        help="closed-loop load-generator client threads (--serve-bench)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="service threads of the in-process served scenarios",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="admission-queue bound of the in-process served scenarios",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=2.0,
        help="per-request deadline in seconds (--serve-bench)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=40,
        help="requests per load-generator client (--serve-bench)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="interleaved serial/served rounds per scenario; the report "
        "keeps the best of each (--serve-bench; default 3, 1 with "
        "--quick)",
    )
    parser.add_argument(
        "--serve-workload",
        default="tpch-q1q6",
        choices=("tpch-q1q6", "micro-q1q2"),
        help="workload mix for --serve-bench --connect (must match the "
        "remote server's dataset)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path of a bench report (defaults to "
        "BENCH_serving.json / BENCH_adaptive.json / BENCH_shard.json)",
    )
    args = parser.parse_args()
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if sum((args.serve_bench, args.adapt_bench, args.shard_bench)) > 1:
        parser.error(
            "pick one of --serve-bench / --adapt-bench / --shard-bench"
        )
    if args.shard_bench:
        from .shard import run_shard_bench

        if args.shards < 1:
            parser.error("--shards must be at least 1")
        if args.quick:
            run_shard_bench(
                sf=0.002 if args.sf == 0.01 else args.sf,
                seed=args.seed,
                shards=args.shards,
                clients=min(args.clients, 4),
                requests_per_client=min(args.requests, 8),
                out_path=args.out or "BENCH_shard.json",
            )
        else:
            run_shard_bench(
                # Heavier default than the other suites: per-query
                # compute must dominate the per-morsel pipe round-trip
                # for core-scaling numbers to measure the executor
                # rather than the IPC floor.
                sf=0.05 if args.sf == 0.01 else args.sf,
                seed=args.seed,
                shards=args.shards,
                clients=min(args.clients, 8),
                requests_per_client=args.requests,
                out_path=args.out or "BENCH_shard.json",
            )
        return
    if args.adapt_bench:
        from .adaptive import run_adapt_bench

        if args.quick:
            run_adapt_bench(
                rows=args.rows if args.rows is not None else 150_000,
                seed=args.seed,
                clients=min(args.clients, 4),
                requests_per_client=min(args.requests, 24),
                concurrency=min(args.concurrency, 2),
                out_path=args.out or "BENCH_adaptive.json",
            )
        else:
            run_adapt_bench(
                rows=args.rows if args.rows is not None else 400_000,
                seed=args.seed,
                clients=min(args.clients, 8),
                requests_per_client=args.requests,
                concurrency=args.concurrency,
                out_path=args.out or "BENCH_adaptive.json",
            )
        return
    if args.serve_bench:
        from .serving import run_serving_bench

        if args.quick:
            # CI smoke: small datasets, a short fleet, same scenarios.
            run_serving_bench(
                rows=args.rows if args.rows is not None else 50_000,
                sf=0.002 if args.sf == 0.01 else args.sf,
                seed=args.seed,
                concurrency=min(args.concurrency, 2),
                queue_depth=args.queue_depth,
                clients=min(args.clients, 4),
                requests_per_client=min(args.requests, 10),
                deadline=args.deadline,
                rounds=args.rounds if args.rounds is not None else 1,
                backend=args.backend,
                connect=args.connect,
                connect_workload=args.serve_workload,
                out_path=args.out or "BENCH_serving.json",
            )
        else:
            run_serving_bench(
                rows=args.rows if args.rows is not None else 200_000,
                sf=args.sf,
                seed=args.seed,
                concurrency=args.concurrency,
                queue_depth=args.queue_depth,
                clients=args.clients,
                requests_per_client=args.requests,
                deadline=args.deadline,
                rounds=args.rounds if args.rounds is not None else 3,
                backend=args.backend,
                connect=args.connect,
                connect_workload=args.serve_workload,
                out_path=args.out or "BENCH_serving.json",
            )
        return
    if args.quick:
        run_quick()
        return
    figures = args.figures
    if not figures:
        parser.error("name at least one figure, or pass --quick")
    if figures == ["all"]:
        figures = ["fig2", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12"]
    rows = args.rows if args.rows is not None else 1_000_000
    for figure in figures:
        run_figure(figure, rows, args.sf, args.plan_cache)


if __name__ == "__main__":
    main()
