"""Throughput bench: report shape and cache integration."""

import json

from repro.bench.throughput import (
    percentile,
    run_throughput,
    run_workload,
)
from repro.datagen import microbench as mb
from repro.datagen.cache import DatasetCache
from repro.engine import Engine

TINY = dict(
    rows=4_000,
    sf=0.001,
    workers=2,
    iterations=2,
    warmup=1,
    strategies=("swole",),
    verbose=False,
)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 1.0) == 5.0

    def test_single_sample(self):
        assert percentile([7.0], 0.95) == 7.0


class TestRunWorkload:
    def test_counts_and_cache_rates(self, micro_db):
        with Engine(db=micro_db, workers=2) as engine:
            mix = [("q1", mb.q1(30)), ("q2", mb.q2(30))]
            result = run_workload(
                engine, mix, "swole",
                workers=2, iterations=3, warmup=1, workload="smoke",
            )
        assert result.queries == 3 * len(mix)
        assert len(result.latencies) == result.queries
        assert result.qps > 0
        assert result.p50_ms <= result.p95_ms
        # warmup filled the plan cache: the measured loop only hits
        assert result.plan_cache["hit_rate"] == 1.0
        row = result.format_row()
        assert "smoke" in row and "q/s" in row


class TestRunThroughput:
    def test_tiny_run_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        cache = DatasetCache(cache_dir=tmp_path / "cache")
        report = run_throughput(
            out_path=str(out), cache=cache, **TINY
        )
        assert out.is_file()
        on_disk = json.loads(out.read_text())
        assert on_disk["bench"] == "throughput"
        assert on_disk["config"]["workers"] == TINY["workers"]
        assert {w["workload"] for w in on_disk["workloads"]} == {
            "tpch-q1q6", "micro-q1q2",
        }
        for workload in on_disk["workloads"]:
            assert workload["qps"] > 0
            assert workload["p50_ms"] <= workload["p95_ms"]
        assert "pool_vs_spawn" not in on_disk
        assert set(on_disk["dataset_cache"]["sources"]) == {
            "microbench", "tpch",
        }
        # first run on an empty cache dir generates everything
        assert set(report["dataset_cache"]["sources"].values()) == {
            "generated"
        }

    def test_second_invocation_hits_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_throughput(
            out_path=None, cache=DatasetCache(cache_dir=cache_dir), **TINY
        )
        # fresh cache object over the same dir = a new process
        report = run_throughput(
            out_path=None, cache=DatasetCache(cache_dir=cache_dir), **TINY
        )
        sources = report["dataset_cache"]["sources"]
        assert set(sources.values()) == {"disk"}
        assert report["dataset_cache"]["stats"]["disk_hits"] >= 2
