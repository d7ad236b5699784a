"""Telemetry subsystem: registry, instruments, spans, ring logs."""

import json
import threading

import pytest

from repro.errors import ReproError
from repro.obs import (
    DEFAULT_BUCKETS,
    ErrorLog,
    MetricsRegistry,
    SlowQueryLog,
    metrics_registry,
    observe_span,
    set_metrics_registry,
    span,
)


class TestInstruments:
    def test_counter_counts_and_rejects_negatives(self):
        reg = MetricsRegistry()
        counter = reg.counter("requests_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ReproError, match="only go up"):
            counter.inc(-1)

    def test_same_name_and_labels_share_one_cell(self):
        reg = MetricsRegistry()
        a = reg.counter("queries_total", strategy="swole")
        b = reg.counter("queries_total", strategy="swole")
        c = reg.counter("queries_total", strategy="hybrid")
        assert a is b
        assert a is not c

    def test_bad_metric_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError, match="not a valid identifier"):
            reg.counter("nope-hyphens")
        with pytest.raises(ReproError, match="not a valid identifier"):
            reg.gauge("ok_name", **{"bad label": 1})

    def test_memoised_cell_is_the_validated_cell(self):
        reg = MetricsRegistry()
        first = reg.counter("queries_total", strategy="swole", backend="c")
        # Another label order is another memo spelling of one cell.
        again = reg.counter("queries_total", backend="c", strategy="swole")
        assert first is again
        assert first is reg.counter(
            "queries_total", strategy="swole", backend="c"
        )
        first.inc()
        assert reg.snapshot()["counters"] == {
            "queries_total{backend=c,strategy=swole}": 1
        }
        # A non-string value names its str() cell and is not memoised
        # (1 and True are equal as keys but are different labels).
        assert reg.gauge("g", n=1) is reg.gauge("g", n="1")
        assert reg.gauge("g", n=True) is not reg.gauge("g", n=1)
        # A rejected name never reaches the memo: it raises every time.
        for _ in range(2):
            with pytest.raises(ReproError, match="not a valid identifier"):
                reg.histogram("nope-hyphens", stage="x")
            with pytest.raises(ReproError, match="not a valid identifier"):
                reg.counter("ok_name", **{"bad label": "x"})

    def test_concurrent_first_lookups_share_one_cell(self):
        # Eight threads race to resolve (and memoise) the same cells
        # under a tiny switch interval; every increment lands in one.
        import sys

        reg = MetricsRegistry()
        per_thread, threads = 500, 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [
                        reg.counter("hits_total", shard=str(i % 3)).inc()
                        for i in range(per_thread)
                    ]
                )
                for _ in range(threads)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=30.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        counters = reg.snapshot()["counters"]
        assert sum(counters.values()) == per_thread * threads
        assert len(counters) == 3

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("queue_depth")
        gauge.set(7)
        gauge.add(-3)
        assert gauge.value == 4.0

    def test_histogram_merges_across_threads(self):
        reg = MetricsRegistry()
        hist = reg.histogram("span_seconds", stage="serve")
        per_thread, threads = 200, 8

        def work():
            for i in range(per_thread):
                hist.observe(0.001 * (i % 10))

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        merged = hist.merged()
        assert merged["count"] == per_thread * threads
        assert merged["sum"] == pytest.approx(
            sum(0.001 * (i % 10) for i in range(per_thread)) * threads
        )
        assert merged["min"] == 0.0
        assert merged["max"] == pytest.approx(0.009)
        assert sum(merged["buckets"].values()) == merged["count"]
        assert set(merged["buckets"]) == {
            *(str(b) for b in DEFAULT_BUCKETS), "+Inf"
        }

    def test_unsorted_bucket_bounds_raise(self):
        from repro.obs import Histogram

        with pytest.raises(ReproError, match="sorted"):
            Histogram(bounds=(1.0, 0.5))


class TestSources:
    def test_sources_fold_into_snapshot(self):
        reg = MetricsRegistry()
        reg.register_source("plan_cache", lambda: {"hits": 3, "misses": 1})
        snap = reg.snapshot()
        assert snap["sources"]["plan_cache"] == {"hits": 3, "misses": 1}

    def test_reregistering_a_source_replaces_it(self):
        reg = MetricsRegistry()
        reg.register_source("pool", lambda: {"workers": 1})
        reg.register_source("pool", lambda: {"workers": 8})
        assert reg.snapshot()["sources"]["pool"] == {"workers": 8}
        reg.unregister_source("pool")
        assert "pool" not in reg.snapshot()["sources"]

    def test_broken_source_does_not_kill_snapshot(self):
        reg = MetricsRegistry()
        reg.register_source("flaky", lambda: 1 / 0)
        reg.counter("ok_total").inc()
        snap = reg.snapshot()
        assert snap["counters"]["ok_total"] == 1
        assert "ZeroDivisionError" in snap["sources"]["flaky"]["error"]

    def test_broken_source_is_counted_and_logged(self):
        reg = MetricsRegistry()
        reg.register_source("flaky", lambda: 1 / 0)
        snap = reg.snapshot()
        # The snapshot that reports the failure already counts it.
        assert snap["counters"]["stats_source_errors_total{source=flaky}"] == 1
        (entry,) = snap["errors"]["entries"]
        assert entry["source"] == "stats.source"
        assert entry["message"].startswith("flaky: ZeroDivisionError")
        reg.snapshot()
        assert reg.counter("stats_source_errors_total", source="flaky").value == 2

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("c_total", strategy="swole").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h", stage="x").observe(0.01)
        reg.register_source("s", lambda: {"v": 2})
        reg.slow_log.record(
            fingerprint="fp", strategy="swole", wall_seconds=9.0
        )
        reg.error_log.record("test", "boom")
        json.dumps(reg.snapshot())  # must not raise


class TestSpans:
    def test_span_context_manager_records_duration(self):
        reg = MetricsRegistry()
        with span("compile", reg, strategy="swole"):
            pass
        merged = reg.histogram(
            "span_seconds", stage="compile", strategy="swole"
        ).merged()
        assert merged["count"] == 1
        assert merged["sum"] >= 0.0

    def test_span_records_even_when_the_block_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            with span("execute", reg):
                raise ValueError("boom")
        assert reg.histogram("span_seconds", stage="execute").merged()[
            "count"
        ] == 1

    def test_observe_span_uses_default_registry_when_unset(self):
        reg = MetricsRegistry()
        set_metrics_registry(reg)
        try:
            observe_span("admit", 0.002)
            assert metrics_registry() is reg
            assert reg.histogram("span_seconds", stage="admit").merged()[
                "count"
            ] == 1
        finally:
            set_metrics_registry(None)


class TestRingLogs:
    def test_slow_log_threshold(self):
        log = SlowQueryLog(threshold_seconds=0.1)
        assert not log.record(
            fingerprint="fast", strategy="swole", wall_seconds=0.05
        )
        assert log.record(
            fingerprint="slow", strategy="swole", wall_seconds=0.2,
            event_counts={"Branch": 10},
        )
        entries = log.entries()
        assert len(entries) == 1
        assert entries[0]["fingerprint"] == "slow"
        assert entries[0]["event_counts"] == {"Branch": 10}

    def test_slow_log_is_a_ring(self):
        log = SlowQueryLog(capacity=2, threshold_seconds=0.0)
        for i in range(5):
            log.record(
                fingerprint=f"fp{i}", strategy="s", wall_seconds=1.0
            )
        snap = log.snapshot()
        assert snap["recorded"] == 5
        assert [e["fingerprint"] for e in snap["entries"]] == ["fp3", "fp4"]

    def test_slow_log_validates_config(self):
        with pytest.raises(ReproError):
            SlowQueryLog(capacity=0)
        with pytest.raises(ReproError):
            SlowQueryLog(threshold_seconds=-1.0)

    def test_error_log_keeps_newest(self):
        log = ErrorLog(capacity=3)
        for i in range(5):
            log.record("tcp.stop", f"err {i}", site="conn_close")
        snap = log.snapshot()
        assert snap["recorded"] == 5
        assert [e["message"] for e in snap["entries"]] == [
            "err 2", "err 3", "err 4"
        ]
        assert snap["entries"][0]["site"] == "conn_close"


class TestPrometheusRender:
    def test_render_contains_all_instrument_kinds(self):
        reg = MetricsRegistry()
        reg.counter("queries_total", strategy="swole").inc(3)
        reg.gauge("queue_depth").set(2)
        reg.histogram("span_seconds", stage="serve").observe(0.03)
        reg.register_source(
            "plan_cache", lambda: {"hit_rate": 0.75, "note": "text"}
        )
        text = reg.render_prometheus()
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{strategy="swole"} 3' in text
        assert "repro_queue_depth 2.0" in text
        assert "# TYPE repro_span_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_span_seconds_count" in text
        assert "repro_plan_cache_hit_rate 0.75" in text
        # Non-numeric source leaves are skipped, not rendered broken.
        assert "note" not in text

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("span_seconds", stage="x")
        hist.observe(0.0001)  # first bucket
        hist.observe(99.0)  # +Inf
        text = reg.render_prometheus()
        assert (
            'repro_span_seconds_bucket{stage="x",le="0.0005"} 1' in text
        )
        assert 'repro_span_seconds_bucket{stage="x",le="+Inf"} 2' in text


class TestDefaultRegistry:
    def test_default_is_a_singleton(self):
        set_metrics_registry(None)
        try:
            assert metrics_registry() is metrics_registry()
        finally:
            set_metrics_registry(None)
