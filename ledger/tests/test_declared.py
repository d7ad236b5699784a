"""BENCHMARK.json against the contract it is written to, and the
workload table against BENCHMARK.json."""

import itertools
import re

from repro.bench.tpch import FIG6_SERIES
from repro.tpch import PIPELINE_QUERIES

from ledger import report, selfcheck, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_and_workload_names_are_well_formed_and_unique():
    benchmark = report.load_benchmark()
    names = [
        m["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for m in benchmark[section]
    ]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    for m in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in benchmark["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in benchmark["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for w in benchmark["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_contract_shape():
    benchmark = report.load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert benchmark["paths"] == ["ledger"]
    assert benchmark["command"] == ["python3", "ledger/run.py"]
    setup = next(
        m for m in benchmark["end_to_end"] if m["name"] == "setup_s"
    )
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(
        m["bound"] for m in benchmark["end_to_end"]
    )
    assert isinstance(benchmark["run_seconds"], int)
    assert 1 <= benchmark["run_seconds"] <= 60


def test_declared_workloads_are_the_harness_workloads():
    benchmark = report.load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(
        workloads.WORKLOADS
    )


def test_exact_metrics_are_declared():
    assert report.EXACT <= set(report.declared(report.load_benchmark()))


def test_workload_cells():
    assert workloads.FIG6 == tuple(FIG6_SERIES)
    assert workloads.TPCH == tuple(PIPELINE_QUERIES)
    sizes = {w.name: len(w.cells) for w in workloads.WORKLOADS.values()}
    assert sizes == {
        "scan_warm": 9, "join_warm": 15, "serve_short": 8,
        "compile_cold": 32, "sim_clock": 32,
    }
    for workload in workloads.WORKLOADS.values():
        # Every workload can report swole-over-hybrid on its own cells.
        assert {"hybrid", "swole"} <= set(workload.strategies)


def test_same_seed_same_cell_order():
    def head(seed, rounds=50):
        return list(itertools.islice(workloads.cell_orders(15, seed), rounds))

    assert head(4) == head(4)
    assert head(4) != head(5)
    # A longer run sends the shorter run's requests first.
    assert head(4, 80)[:50] == head(4)
    for order in head(4):
        assert sorted(order) == list(range(15))


def test_selfcheck_judges_medians_against_bounds_and_exact_metrics():
    judge = selfcheck.judge
    gated = {"name": "cell_p50_geomean_ms", "bound": 0.07}
    assert judge("cell_p50_geomean_ms", [5.0], [5.3], gated)[1] is None
    assert judge("cell_p50_geomean_ms", [5.0], [5.5], gated)[1]
    assert judge("cell_p50_geomean_ms", [5.0], [4.5], gated)[1]
    # Sets compare by their medians: one slow run does not fail a set.
    assert judge(
        "cell_p50_geomean_ms", [5.0, 5.1, 9.0], [5.2, 5.0, 5.1], gated
    )[1] is None
    free = {"name": "obs.span_us"}
    assert judge("obs.span_us", [5.0], [50.0], free)[1] is None
    exact = {"name": "plan.passes.applied"}
    assert judge("plan.passes.applied", [18, 18], [18], exact)[1] is None
    assert judge("plan.passes.applied", [18, 18], [18, 19], exact)[1]
    assert judge("x", [], [1.0], free)[1]


def test_selfcheck_compares_sets_of_reports():
    benchmark = report.load_benchmark()

    def ledger(p50, cycles):
        return {"workloads": {"scan_warm": {"metrics": {
            "cell_p50_geomean_ms": {"value": p50, "unit": "ms"},
            "sim_cycles_geomean": {"value": cycles, "unit": "cycles"},
            "engine.executor.morsel_ratio_2w": {"value": None, "unit": "ratio"},
        }}}}

    lines, failures = selfcheck.compare(
        [ledger(5.0, 100.0), ledger(5.2, 100.0)], [ledger(5.1, 100.0)],
        benchmark,
    )
    assert failures == []
    assert lines[0] == "== scan_warm ==" and len(lines) == 3
    _, failures = selfcheck.compare(
        [ledger(5.0, 100.0)], [ledger(9.0, 101.0)], benchmark
    )
    assert len(failures) == 2


def test_one_cpu_nulls_the_scaling_ratio_but_keeps_the_measurement():
    benchmark = report.load_benchmark()
    run = {
        "traced": True, "rounds": 2, "attempted": 10, "failed": 0,
        "metrics": {"engine.executor.morsel_ratio_2w": 0.93},
        "cells": {}, "trace_file": "t.json",
    }
    entry = report.merge([dict(run)], benchmark, cpus=1)
    record = entry["metrics"]["engine.executor.morsel_ratio_2w"]
    assert record["value"] is None and record["measured"] == 0.93
    assert "1 CPU" in record["reason"]
    entry = report.merge([dict(run)], benchmark, cpus=2)
    assert entry["metrics"]["engine.executor.morsel_ratio_2w"]["value"] == 0.93
