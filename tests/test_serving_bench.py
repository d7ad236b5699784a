"""Serving benchmark harness: report shape, overload demo, loadgen math."""

import json

import pytest

from repro.bench.serving import (
    WORKLOADS,
    LoadgenResult,
    drive_load,
    effective_concurrency,
    percentile,
    run_serving_bench,
)
from repro.server import QueryResponse
from repro.server.protocol import STATUS_ERROR, STATUS_OK, ErrorInfo


def tiny_report(tmp_path, **overrides):
    kwargs = dict(
        rows=20_000,
        sf=0.002,
        concurrency=2,
        queue_depth=8,
        clients=3,
        requests_per_client=4,
        deadline=5.0,
        rounds=1,
        strategies=("swole",),
        out_path=str(tmp_path / "BENCH_serving.json"),
        verbose=False,
    )
    kwargs.update(overrides)
    return run_serving_bench(**kwargs)


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


class TestDriveLoad:
    def test_counters_classify_responses(self):
        script = iter(
            [
                QueryResponse(id="1", status=STATUS_OK, value=1.0),
                QueryResponse(
                    id="2",
                    status=STATUS_ERROR,
                    error=ErrorInfo(
                        code="queue_full", message="", retry_after=0.001
                    ),
                ),
                QueryResponse(
                    id="3",
                    status=STATUS_ERROR,
                    error=ErrorInfo(code="deadline_exceeded", message=""),
                ),
                QueryResponse(
                    id="4",
                    status=STATUS_ERROR,
                    error=ErrorInfo(code="execution_failed", message=""),
                ),
            ]
        )
        result = LoadgenResult(
            scenario="t", workload="w", strategy="s",
            clients=1, concurrency=1, queue_depth=1,
        )
        drive_load(
            lambda *_: next(script),
            WORKLOADS["micro-q1q2"],
            "swole",
            clients=1,
            requests_per_client=4,
            deadline=None,
            result=result,
        )
        assert result.issued == 4
        assert (result.ok, result.shed, result.timed_out, result.failed) == (
            1, 1, 1, 1,
        )
        assert result.shed_rate == 0.25
        assert result.deadline_miss_rate == 0.25

    def test_late_ok_counts_as_deadline_miss(self):
        response = QueryResponse(
            id="1",
            status=STATUS_OK,
            value=1.0,
            metrics={"deadline_missed": True},
        )
        result = LoadgenResult(
            scenario="t", workload="w", strategy="s",
            clients=1, concurrency=1, queue_depth=1,
        )
        drive_load(
            lambda *_: response,
            WORKLOADS["micro-q1q2"],
            "swole",
            clients=1,
            requests_per_client=2,
            deadline=10.0,
            result=result,
        )
        assert result.ok == 2
        assert result.completed_late == 2
        assert result.deadline_miss_rate == 1.0


class TestInProcessBench:
    def test_report_shape_and_zero_failures(self, tmp_path):
        out = tmp_path / "BENCH_serving.json"
        report = tiny_report(tmp_path)

        assert report["bench"] == "serving"
        assert report["config"]["transport"] == "in-process"
        assert report["failures"] == 0

        # serial + served per (workload, strategy): 2 workloads x 1
        # strategy x 2 scenarios, plus nothing else.
        scenarios = report["scenarios"]
        assert {s["scenario"] for s in scenarios} == {"serial", "served"}
        assert len(scenarios) == 4
        for scenario in scenarios:
            assert scenario["issued"] > 0
            assert scenario["failed"] == 0
            assert scenario["p95_ms"] >= scenario["p50_ms"] >= 0.0

        assert len(report["speedups"]) == 2
        for entry in report["speedups"]:
            assert entry["serial_qps"] > 0
            assert entry["served_qps"] > 0

        # The overload demo sheds without crashing: every rejection is
        # structured, nothing fails, nothing hangs.
        shed_demo = report["shedding"]["loadgen"]
        assert shed_demo["scenario"] == "overload"
        assert shed_demo["shed"] > 0
        assert shed_demo["failed"] == 0
        assert (
            shed_demo["ok"]
            + shed_demo["shed"]
            + shed_demo["timed_out"]
            == shed_demo["issued"]
        )
        assert report["shedding"]["service_stats"]["shed"] > 0

        written = json.loads(out.read_text())
        assert written["failures"] == 0

    def test_seed_is_recorded_and_threaded(self, tmp_path):
        report = tiny_report(tmp_path, seed=123)
        assert report["config"]["seed"] == 123

    def test_service_stats_accompany_served_scenarios(self, tmp_path):
        report = tiny_report(tmp_path)
        stats = report["service_stats"]
        assert len(stats) == 2
        for snap in stats:
            assert snap["submitted"] >= snap["completed"] > 0
            assert snap["workload"] in WORKLOADS

    def test_rounds_keep_best_and_record_all(self, tmp_path):
        report = tiny_report(tmp_path, rounds=2)
        assert report["config"]["rounds"] == 2
        # One kept (best) scenario pair per cell, regardless of rounds.
        assert len(report["scenarios"]) == 4
        for entry in report["speedups"]:
            assert len(entry["serial_qps_rounds"]) == 2
            assert len(entry["served_qps_rounds"]) == 2
            assert entry["serial_qps"] == max(entry["serial_qps_rounds"])
            assert entry["served_qps"] == max(entry["served_qps_rounds"])

    def test_rounds_must_be_positive(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match=r"rounds"):
            tiny_report(tmp_path, rounds=0)

    def test_service_threads_capped_at_host_cores(self, tmp_path):
        import os

        cores = os.cpu_count() or 1
        assert effective_concurrency(1) == 1
        assert effective_concurrency(10_000) == cores
        report = tiny_report(tmp_path, concurrency=10_000)
        assert report["config"]["concurrency"] == 10_000
        assert report["config"]["service_threads"] == cores
        served = [
            s for s in report["scenarios"] if s["scenario"] == "served"
        ]
        assert all(s["concurrency"] == cores for s in served)


class TestConnectValidation:
    def test_bad_address_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match=r"host:port"):
            run_serving_bench(
                connect="localhost", out_path=None, verbose=False
            )

    def test_unknown_workload_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match=r"unknown workload"):
            run_serving_bench(
                connect="127.0.0.1:1",
                connect_workload="nope",
                out_path=None,
                verbose=False,
            )
