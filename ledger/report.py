"""The ledger's one report schema: provenance header, metrics by name
with units, the printed tables and the benchmark contract's line."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from typing import Dict, List, Optional

from . import BENCHMARK_JSON, ROOT

#: Per-layer metrics that must be identical from run to run (counts and
#: ratios of counts; ``ledger/selfcheck.py`` asserts it).
EXACT = frozenset(
    {
        "datagen.cache.hit_rate",
        "storage.encoded_byte_ratio",
        "plan.passes.applied",
        "plan.passes.declined",
        "plan.passes.estimate_over_sim",
        "codegen.lower.physical_ops",
        "codegen.vectorize.source_lines",
        "codegen.vectorize.fallbacks",
        "codegen.encoding_cycle_ratio",
        "engine.plan_cache.hit_rate",
        "engine.sim.cycles_total",
        "engine.sim.events.SeqRead",
        "engine.sim.events.CondRead",
        "engine.sim.events.RandomAccess",
        "engine.sim.events.Branch",
        "engine.sim.events.Compute",
        "engine.machine.paper_speedup_log_error",
        "server.protocol.request_bytes",
        "server.protocol.response_bytes",
        "server.service.shed",
        "server.service.coalesced",
        "server.service.timed_out",
        "server.service.failed",
        "failed_share",
        "sim_cycles_geomean",
        "swole_over_hybrid_geomean",
    }
)

#: A scaling ratio measured on fewer CPUs than this is not a result.
SCALING_MIN_CPUS = 2
SCALING_METRICS = ("engine.executor.morsel_ratio_2w",)


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def declared(benchmark: dict) -> Dict[str, dict]:
    """Every declared metric by name (end-to-end first)."""
    return {
        m["name"]: m
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ("git", *args), cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def header(seed: int) -> dict:
    """Who measured what, where: a 1-CPU run cannot pass for a scaling
    result because the CPU count travels with every number."""
    import numpy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "bench": "ledger",
        "commit": commit,
        "dirty": bool(status) if commit is not None else None,
        "unix_time": time.time(),
        "seed": seed,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": len(os.sched_getaffinity(0)),
        },
    }


def median_run(runs: List[dict]) -> dict:
    """The untraced reports of one run's processes as one: every
    metric and every per-cell percentile is the median over the
    processes; ops, failures and samples add up."""
    first = runs[0]
    return {
        **first,
        "processes": len(runs),
        "rounds": sum(run["rounds"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            name: statistics.median(run["metrics"][name] for run in runs)
            for name in first["metrics"]
        },
        "cells": {
            label: {
                column: (sum if column == "samples" else statistics.median)(
                    run["cells"][label][column] for run in runs
                )
                for column in row
            }
            for label, row in first["cells"].items()
        },
    }


def merge(runs: List[dict], benchmark: dict, cpus: int) -> dict:
    """One workload's untraced and/or traced reports as one entry:
    every metric named, with its unit from ``BENCHMARK.json``."""
    units = {name: m["unit"] for name, m in declared(benchmark).items()}
    entry: dict = {
        "rounds": {},
        "processes": {},
        "attempted": 0,
        "failed": 0,
        "metrics": {},
        "cells": {},
    }
    for run in runs:
        mode = "traced" if run["traced"] else "untraced"
        entry["rounds"][mode] = run["rounds"]
        entry["processes"][mode] = run.get("processes", 1)
        entry["attempted"] += run["attempted"]
        entry["failed"] += run["failed"]
        for name, value in run["metrics"].items():
            entry["metrics"][name] = {"value": value, "unit": units[name]}
        for label, row in run["cells"].items():
            entry["cells"].setdefault(label, {}).update(row)
        if run["traced"]:
            entry["trace_file"] = run["trace_file"]
    entry["metrics"]["failed_share"] = {
        "value": entry["failed"] / entry["attempted"],
        "unit": units["failed_share"],
    }
    if cpus < SCALING_MIN_CPUS:
        for name in SCALING_METRICS:
            record = entry["metrics"].get(name)
            if record is not None:
                record["measured"] = record["value"]
                record["value"] = None
                record["reason"] = (
                    f"host has {cpus} CPU: not a scaling result"
                )
    return entry


def contract_line(entry: dict, benchmark: dict, *, traced: bool) -> str:
    """The last line the benchmark contract asks for: exactly the
    end-to-end metrics of an untraced run, or exactly the per-layer
    metrics of a traced one."""
    names = [
        m["name"]
        for m in benchmark["per_layer" if traced else "end_to_end"]
    ]
    metrics = {}
    for name in names:
        record = entry["metrics"][name]
        value = record["value"]
        if value is None:
            value = record["measured"]
        metrics[name] = {"value": value, "unit": record["unit"]}
    return json.dumps(
        {
            "correct": entry["failed"] == 0,
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": metrics,
        }
    )


def render_header(ledger: dict) -> str:
    host = ledger["host"]
    commit = ledger["commit"] or "unknown (not a git checkout)"
    dirty = " +dirty" if ledger["dirty"] else ""
    return (
        f"ledger  commit {commit}{dirty}  seed {ledger['seed']}  "
        f"unix_time {ledger['unix_time']:.0f}\n"
        f"host    {host['platform']}  python {host['python']}  "
        f"numpy {host['numpy']}  cpus {host['cpus']}"
    )


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def render(name: str, entry: dict, benchmark: dict) -> str:
    """One workload as text: its metrics by name with units, then the
    per-cell table that backs the geomeans."""
    decl = declared(benchmark)
    why = next(
        w["why"] for w in benchmark["workloads"] if w["name"] == name
    )
    rounds = ", ".join(
        f"{count} {mode} rounds in {entry['processes'][mode]} process(es)"
        for mode, count in entry["rounds"].items()
    )
    lines = [
        "",
        f"== {name} == {rounds}; {entry['attempted']} ops checked, "
        f"{entry['failed']} failed",
        f"   {why}",
    ]
    for metric in decl:
        record = entry["metrics"].get(metric)
        if record is None:
            continue
        note = ""
        if metric in EXACT:
            note = "  (exact)"
        if "bound" in decl[metric]:
            note += f"  (gate: {decl[metric]['better']} is better, " \
                    f"bound {decl[metric]['bound']:.0%})"
        if record.get("reason"):
            note += f"  ({record['reason']}; measured " \
                    f"{_format(record['measured'])})"
        lines.append(
            f"  {metric:<42s} {_format(record['value']):>14s} "
            f"{record['unit']}{note}"
        )
    columns: List[str] = []
    for row in entry["cells"].values():
        columns.extend(c for c in row if c not in columns)
    if columns:
        lines.append("  -- per cell --")
        lines.append(
            "  " + f"{'cell':<18s}" + " ".join(f"{c:>14.14s}" for c in columns)
        )
        for label, row in entry["cells"].items():
            lines.append(
                "  " + f"{label:<18s}"
                + " ".join(f"{_format(row.get(c)):>14s}" for c in columns)
            )
    return "\n".join(lines)
