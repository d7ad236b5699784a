#!/usr/bin/env python3
"""The performance ledger's one command.

    python3 ledger/run.py [--workload W ...] [--seed N]
                          [--seconds S | --rounds N]
                          [--trace {0,1,both}] [--out FILE]

Runs each workload in subprocesses of its own (fresh scratch
``REPRO_CACHE_DIR`` under ``ledger/out/``, ``PYTHONHASHSEED=0``,
private metrics registries, ``workers=1``, pinned to one CPU), checks
every answer against ``repro.tpch.reference_result``, and prints every
metric by name with its unit. ``--trace 0`` is the untraced run
(end-to-end metrics), ``--trace 1`` the traced run (per-layer metrics,
spans written to ``ledger/out/trace_<workload>.json``), ``both`` (the
default) runs one after the other. With a single ``--workload`` and
``--trace 0|1`` the last line of standard output is the benchmark
contract's JSON object.

Exits non-zero when any op failed or answered wrong.
"""

from __future__ import annotations

import time

_PROCESS_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from ledger import OUT_DIR, report  # noqa: E402
from ledger.workloads import WORKLOADS, select  # noqa: E402

#: The driver allows a run 180 s; stop a stuck child well before that.
CHILD_TIMEOUT_S = 150
#: An untraced run splits its seconds over this many processes, one
#: after the other, and reports each end-to-end metric as the median
#: over them. Wall time here differs between processes of the same code
#: by more than it drifts inside one (page placement, allocator and
#: host state), and a median over processes shrugs off the odd slow
#: one. It also makes ``setup_s`` the median of five set-ups.
PROCESSES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", default=[], choices=list(WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=1)
    length = parser.add_mutually_exclusive_group()
    length.add_argument(
        "--seconds", type=float,
        help="measure whole rounds for this long in all "
        "(default: run_seconds of BENCHMARK.json)",
    )
    length.add_argument(
        "--rounds", type=int,
        help="measure exactly this many rounds per process instead",
    )
    parser.add_argument(
        "--trace", nargs="?", const="1", default="both",
        choices=("0", "1", "both"),
    )
    parser.add_argument("--out", type=Path, help="write the report here")
    # Internal: run one workload in this process and write its report.
    parser.add_argument("--child-report", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--child-scratch", type=Path, help=argparse.SUPPRESS)
    parser.add_argument(
        "--child-index", type=int, default=0, help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def child_main(args: argparse.Namespace) -> int:
    """One workload, one mode, in this process."""
    from ledger import harness

    (workload,) = select(args.workload)
    budget = harness.Budget(seconds=args.seconds, rounds=args.rounds)
    # Each process of a run draws its own round orders from the seed.
    seed = args.seed * PROCESSES + args.child_index
    if args.trace == "1":
        from ledger import layers

        result = layers.run_traced(
            workload, args.child_scratch, seed, budget,
            OUT_DIR / f"trace_{workload.name}.json",
        )
    else:
        result = harness.run_untraced(
            workload, args.child_scratch, seed, budget, _PROCESS_START_NS
        )
    args.child_report.write_text(json.dumps(result))
    return 0


def run_child(
    workload: str, traced: bool, args: argparse.Namespace,
    *, index: int = 0, seconds: Optional[float] = None,
) -> dict:
    """Spawn one workload subprocess, wait for it, return its report.
    The scratch directory is removed on every exit path."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        report_path = scratch / "report.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--trace", "1" if traced else "0",
            "--child-report", str(report_path),
            "--child-scratch", str(scratch),
            "--child-index", str(index),
        ]
        if args.rounds is not None:
            command += ["--rounds", str(args.rounds)]
        else:
            command += ["--seconds", str(seconds)]
        env = dict(
            os.environ,
            PYTHONHASHSEED="0",
            REPRO_CACHE_DIR=str(scratch / "cache-default"),
        )
        subprocess.run(
            command, env=env, check=True, timeout=CHILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
        return json.loads(report_path.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_workload(workload: str, traced: bool, args) -> dict:
    """One run of one workload: a single traced process, or
    :data:`PROCESSES` untraced ones sharing the run's seconds."""
    if traced:
        return run_child(workload, True, args, seconds=args.seconds)
    share = None if args.seconds is None else args.seconds / PROCESSES
    return report.median_run([
        run_child(workload, False, args, index=index, seconds=share)
        for index in range(PROCESSES)
    ])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child_report is not None:
        return child_main(args)
    benchmark = report.load_benchmark()
    if args.rounds is None and args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    workloads = select(args.workload)
    modes = {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]
    ledger = report.header(args.seed)
    ledger["workloads"] = {}
    print(report.render_header(ledger))
    cpus = ledger["host"]["cpus"]
    failed = 0
    for workload in workloads:
        try:
            runs = [
                run_workload(workload.name, traced, args) for traced in modes
            ]
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            # The child's own traceback is already on standard error.
            print(f"ledger: {workload.name}: {exc}", file=sys.stderr)
            return 2
        entry = report.merge(runs, benchmark, cpus)
        ledger["workloads"][workload.name] = entry
        failed += entry["failed"]
        print(report.render(workload.name, entry, benchmark))
    if args.out is not None:
        args.out.write_text(json.dumps(ledger, indent=1))
    if len(workloads) == 1 and len(modes) == 1:
        print(report.contract_line(entry, benchmark, traced=modes[0]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
