"""Each workload end to end at ``--rounds 2``: finishes in under 20 s,
answers right, and emits exactly the metric names BENCHMARK.json
declares — no missing name, no unnamed extra."""

import functools
import json
import subprocess
import sys
import time

import pytest

from ledger import LEDGER_DIR, ROOT, report
from ledger.workloads import WORKLOADS

LIMIT_S = 20.0


@functools.lru_cache(maxsize=None)
def ledger_run(workload: str, trace: str):
    begin = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--workload", workload,
         "--rounds", "2", "--seed", "5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return time.monotonic() - begin, done


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    elapsed, done = ledger_run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < LIMIT_S
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    benchmark = report.load_benchmark()
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark[section]}
    assert set(result["metrics"]) == set(declared)
    for name, record in result["metrics"].items():
        assert set(record) == {"value", "unit"}
        assert record["unit"] == declared[name]
        assert isinstance(record["value"], (int, float)), name
    # The printed ledger names every metric it measured, with its unit.
    printed = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert any(
            line.split()[:1] == [name] and unit in line.split()
            for line in lines[:-1]
        ), name
    assert "cpus" in printed and "commit" in printed and "seed 5" in printed


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workloads_discriminate_as_designed(workload):
    _, done = ledger_run(workload, "1")
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    warm = workload != "compile_cold"
    assert metrics["engine.plan_cache.hit_rate"]["value"] == float(warm)
    share = metrics["codegen.kernel_share"]["value"]
    if workload in ("scan_warm", "join_warm"):
        assert share >= 0.85
    if workload == "serve_short":
        assert share <= 0.40
    if workload == "compile_cold":
        assert share == 0.0
    assert metrics["failed_share"]["value"] == 0.0
    assert metrics["codegen.vectorize.fallbacks"]["value"] == 0
    assert metrics["trace.reconcile_gap_max"]["value"] <= 0.10


def test_trace_file_holds_a_span_forest_per_op():
    _, done = ledger_run("serve_short", "1")
    assert done.returncode == 0, done.stderr[-2000:]
    trace = json.loads(
        (LEDGER_DIR / "out" / "trace_serve_short.json").read_text()
    )
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["name"] == "client.request"]
    assert len(roots) == trace["rounds"] * len(trace["cells"])
    for s in spans:
        if s["parent"] is not None:
            assert by_id[s["parent"]]["op"] == s["op"]
            assert s["source"] in ("replayed", "reported")
    kernel = next(s for s in spans if s["name"] == "codegen.kernel")
    chain = []
    while kernel is not None:
        chain.append(kernel["name"])
        kernel = by_id.get(kernel["parent"])
    assert chain == [
        "codegen.kernel", "engine.execute", "server.service.execute",
        "client.request",
    ]
    assert set(trace["cells"]) == {
        f"{q}/{s}" for q, s in WORKLOADS["serve_short"].cells
    }


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    ledger/ exist: it must exit non-zero and print no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        LEDGER_DIR, tmp_path / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "serve_short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
