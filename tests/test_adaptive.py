"""The adaptive loop: feedback store, chooser, re-optimizer, engine wiring."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.adaptive import (
    ARM_CYCLE,
    AdaptiveController,
    AdaptivePolicy,
    FeedbackStore,
    Observation,
    StrategyChooser,
    observation_from_run,
    resolve_adaptive,
)
from repro.adaptive.reopt import ReOptimizer
from repro.bench.adaptive import clustered_microbench
from repro.datagen import microbench as mb
from repro.engine.costing import StatsOverride
from repro.engine.facade import Engine
from repro.codegen.pipeline import compile_pipeline
from repro.engine.plan_cache import PlanCache, plan_key, query_fingerprint
from repro.engine.program import results_equal
from repro.engine.session import ExecutionKnobs
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.tpch import PIPELINE_QUERIES, STRATEGIES, logical_plan



BENCH_POLICY = AdaptivePolicy(
    alpha=0.5, explore_every=4, drift_threshold=0.3, min_observations=2
)


def _obs(wall=0.01, **kw):
    return Observation(wall_seconds=wall, **kw)


# -- feedback store -------------------------------------------------------


class TestFeedbackStore:
    def test_ewma_folding_is_deterministic(self):
        a = FeedbackStore(alpha=0.5)
        b = FeedbackStore(alpha=0.5)
        for store in (a, b):
            for wall in (0.01, 0.02, 0.04):
                store.record(
                    "fp", "swole", "vectorized", _obs(wall=wall)
                )
        assert (
            a.summary("fp").wall_seconds.value
            == b.summary("fp").wall_seconds.value
        )
        assert a.summary("fp").wall_seconds.value == pytest.approx(
            0.0275
        )

    def test_concurrent_recording_loses_nothing(self):
        store = FeedbackStore(alpha=0.2)
        threads, per_thread = 8, 200

        def hammer(idx):
            for i in range(per_thread):
                store.record(
                    f"fp{idx % 4}",
                    "swole",
                    "vectorized",
                    _obs(wall=0.001 * (i + 1), selectivity=0.5),
                )

        workers = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(threads)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        snap = store.snapshot()
        assert snap["recorded"] == threads * per_thread
        total = sum(
            s["observations"] for s in snap["summaries"].values()
        )
        assert total == threads * per_thread
        for s in snap["summaries"].values():
            assert s["selectivity"]["value"] == pytest.approx(0.5)

    def test_bounded_by_max_fingerprints(self):
        store = FeedbackStore(max_fingerprints=4)
        for i in range(16):
            store.record(f"fp{i}", "swole", "vectorized", _obs())
        snap = store.snapshot()
        assert snap["fingerprints"] == 4
        # LRU: the most recently recorded survive.
        assert set(snap["summaries"]) == {f"fp{i}" for i in range(12, 16)}

    def test_best_arm_tracks_wall_clock(self):
        store = FeedbackStore(alpha=0.5)
        for _ in range(3):
            store.record("fp", "swole", "vectorized", _obs(wall=0.001))
            store.record(
                "fp", "hybrid", "instrumented", _obs(wall=0.050)
            )
        assert store.best_arm("fp") == ("swole", "vectorized")

    def test_crossover_requires_both_modes(self):
        store = FeedbackStore(alpha=0.5)
        store.record(
            "fp", "swole", "vectorized",
            _obs(wall=0.010, scan_rows=1 << 16, parallel=False),
        )
        assert store.crossover_rows() is None
        store.record(
            "fp", "swole", "vectorized",
            _obs(wall=0.004, scan_rows=1 << 16, parallel=True),
        )
        assert store.crossover_rows() == 1 << 16
        # Serial winning in a smaller bucket does not mask the
        # measured crossover above it.
        store.record(
            "fp", "swole", "vectorized",
            _obs(wall=0.001, scan_rows=1 << 12, parallel=False),
        )
        store.record(
            "fp", "swole", "vectorized",
            _obs(wall=0.002, scan_rows=1 << 12, parallel=True),
        )
        assert store.crossover_rows() == 1 << 16

    def test_rejects_bad_policy(self):
        with pytest.raises(ReproError):
            FeedbackStore(alpha=0.0)
        with pytest.raises(ReproError):
            FeedbackStore(max_fingerprints=0)


class TestObservationExtraction:
    def test_hybrid_instrumented_measures_true_selectivity(
        self, micro_db
    ):
        engine = Engine(micro_db, backend="instrumented")
        result = engine.execute(mb.q1(30), "hybrid")
        obs = observation_from_run(
            result.report, result.report.metrics
        )
        data = micro_db.data("R")
        true_sel = float(np.mean(data["r_x"] < 30))
        assert obs.selectivity == pytest.approx(true_sel, abs=0.01)
        assert obs.total_cycles > 0
        assert obs.events > 0

    def test_datacentric_branch_product(self, micro_db):
        engine = Engine(micro_db, backend="instrumented")
        result = engine.execute(mb.q1(30), "datacentric")
        obs = observation_from_run(
            result.report, result.report.metrics
        )
        data = micro_db.data("R")
        true_sel = float(np.mean(data["r_x"] < 30))
        assert obs.selectivity is not None
        assert obs.selectivity == pytest.approx(true_sel, abs=0.02)

    def test_vectorized_run_has_no_selectivity(self, micro_db):
        engine = Engine(micro_db, backend="vectorized")
        result = engine.execute(mb.q1(30), "swole")
        obs = observation_from_run(
            result.report, result.report.metrics
        )
        assert obs.selectivity is None
        assert obs.wall_seconds > 0

    def test_join_run_measures_match_fraction(self, tpch_db):
        # Q3's semijoin probes emit zero-cost StatSample telemetry;
        # the observation folds them into one per-run match fraction
        # (the product over join sites of hits/probes).
        engine = Engine(tpch_db, backend="instrumented")
        result = engine.execute(logical_plan("Q3"), "hybrid")
        obs = observation_from_run(
            result.report, result.report.metrics
        )
        assert obs.match_fraction is not None
        assert 0.0 < obs.match_fraction < 1.0

    def test_group_cardinality_matches_result_groups(self, tpch_db):
        engine = Engine(tpch_db, backend="instrumented")
        result = engine.execute(logical_plan("Q1"), "hybrid")
        obs = observation_from_run(
            result.report, result.report.metrics
        )
        assert obs.group_cardinality == len(result.value["keys"])

    def test_scan_only_run_has_no_join_stats(self, micro_db):
        engine = Engine(micro_db, backend="instrumented")
        result = engine.execute(mb.q1(30), "hybrid")
        obs = observation_from_run(
            result.report, result.report.metrics
        )
        assert obs.match_fraction is None


# -- chooser --------------------------------------------------------------


class TestChooser:
    def test_schedule_is_deterministic(self):
        def run_schedule():
            store = FeedbackStore(alpha=0.5)
            chooser = StrategyChooser(store, explore_every=4)
            picks = []
            for i in range(24):
                strategy, backend, explored = chooser.choose(
                    "fp", "vectorized"
                )
                picks.append((strategy, backend, explored))
                store.record(
                    "fp", strategy, backend,
                    _obs(wall=0.01 if backend == "vectorized" else 0.05),
                )
            return picks

        assert run_schedule() == run_schedule()

    def test_explores_every_nth_cycling_arms(self):
        store = FeedbackStore(alpha=0.5)
        chooser = StrategyChooser(store, explore_every=4)
        picks = [chooser.choose("fp", "vectorized") for _ in range(13)]
        explored = [p for p in picks if p[2]]
        # Request 0 is the default arm; later explores walk ARM_CYCLE.
        assert explored[0] == ("swole", "vectorized", True)
        assert explored[1][:2] == ARM_CYCLE[0]
        assert explored[2][:2] == ARM_CYCLE[1]
        assert explored[3][:2] == ARM_CYCLE[2]
        assert len(explored) == 4

    def test_exploits_measured_best(self):
        store = FeedbackStore(alpha=0.5)
        chooser = StrategyChooser(store, explore_every=100)
        store.record(
            "fp", "datacentric", "vectorized", _obs(wall=0.001)
        )
        store.record("fp", "swole", "vectorized", _obs(wall=0.010))
        chooser.choose("fp", "vectorized")  # request 0 explores
        strategy, backend, explored = chooser.choose("fp", "vectorized")
        assert (strategy, backend, explored) == (
            "datacentric", "vectorized", False,
        )

    def test_instrumented_arms_lead_the_cycle(self):
        # Selectivity telemetry only flows from instrumented
        # conditional-access runs; the cycle must reach them first.
        assert ARM_CYCLE[0][1] == "instrumented"
        assert ARM_CYCLE[0][0] in ("hybrid", "datacentric")


# -- re-optimizer ---------------------------------------------------------


class TestReOptimizer:
    def _armed_store(self, observed=0.30, samples=3):
        store = FeedbackStore(alpha=0.5)
        for _ in range(samples):
            store.record(
                "fp", "hybrid", "instrumented",
                _obs(selectivity=observed),
            )
        return store

    def test_triggers_on_drift_and_installs_override(self):
        store = self._armed_store(observed=0.30)
        reopt = ReOptimizer(
            store, drift_threshold=0.3, min_observations=2
        )
        cache = PlanCache(capacity=8)
        spec = plan_key(mb.q1(30), "swole")
        cache.put(spec._replace(fingerprint="fp"), object())
        cache.put(
            spec._replace(fingerprint="fp", backend="vectorized"), object()
        )
        cache.put(spec, object())
        triggered = reopt.maybe_reoptimize(
            "fp", {"survival": 0.95}, cache
        )
        assert triggered
        assert reopt.recompiles == 1
        override = reopt.override_for("fp")
        assert override is not None
        assert override.selectivity == pytest.approx(0.30)
        # Targeted: only fp's cells dropped, counter ticked per entry.
        assert len(cache) == 1
        assert cache.stats.invalidations == 2

    def test_quiet_below_threshold_or_samples(self):
        store = self._armed_store(observed=0.30, samples=1)
        reopt = ReOptimizer(
            store, drift_threshold=0.3, min_observations=2
        )
        cache = PlanCache(capacity=8)
        assert not reopt.maybe_reoptimize(
            "fp", {"survival": 0.95}, cache
        )
        store.record(
            "fp", "hybrid", "instrumented", _obs(selectivity=0.30)
        )
        assert not reopt.maybe_reoptimize(
            "fp", {"survival": 0.32}, cache
        )
        assert reopt.override_for("fp") is None

    def test_settled_override_does_not_thrash(self):
        store = self._armed_store(observed=0.30)
        reopt = ReOptimizer(
            store, drift_threshold=0.3, min_observations=2
        )
        cache = PlanCache(capacity=8)
        assert reopt.maybe_reoptimize("fp", {"survival": 0.95}, cache)
        # Same measured value against the installed override: drift is
        # now ~0, so no further invalidation however often we check.
        for _ in range(5):
            assert not reopt.maybe_reoptimize(
                "fp", {"survival": 0.95}, cache
            )
        assert reopt.recompiles == 1

    def test_override_carries_measured_join_statistics(self):
        store = FeedbackStore(alpha=0.5)
        for _ in range(3):
            store.record(
                "fp", "hybrid", "instrumented",
                _obs(
                    selectivity=0.30,
                    match_fraction=0.125,
                    group_cardinality=20.0,
                ),
            )
        reopt = ReOptimizer(
            store, drift_threshold=0.3, min_observations=2
        )
        cache = PlanCache(capacity=8)
        assert reopt.maybe_reoptimize("fp", {"survival": 0.95}, cache)
        override = reopt.override_for("fp")
        assert override.match_fraction == pytest.approx(0.125)
        assert override.group_cardinality == 20

    def test_override_join_fields_absent_without_telemetry(self):
        store = self._armed_store(observed=0.30)
        reopt = ReOptimizer(
            store, drift_threshold=0.3, min_observations=2
        )
        cache = PlanCache(capacity=8)
        assert reopt.maybe_reoptimize("fp", {"survival": 0.95}, cache)
        override = reopt.override_for("fp")
        assert override.match_fraction is None
        assert override.group_cardinality is None


# -- persistence ----------------------------------------------------------


class TestFeedbackPersistence:
    def _seasoned_store(self):
        store = FeedbackStore(alpha=0.5)
        for wall in (0.01, 0.02):
            store.record(
                "fp-a", "hybrid", "instrumented",
                _obs(
                    wall=wall,
                    selectivity=0.3,
                    match_fraction=0.1,
                    group_cardinality=12.0,
                    scan_rows=1 << 14,
                    parallel=False,
                ),
            )
        store.record(
            "fp-a", "swole", "vectorized",
            _obs(wall=0.005, scan_rows=1 << 14, parallel=True),
        )
        store.record("fp-b", "datacentric", "vectorized", _obs(wall=0.04))
        return store

    def test_snapshot_restore_roundtrip(self):
        store = self._seasoned_store()
        clone = FeedbackStore(alpha=0.5)
        assert clone.restore(store.snapshot()) == 2
        for fp in ("fp-a", "fp-b"):
            old, new = store.summary(fp), clone.summary(fp)
            assert new.observations == old.observations
            assert new.wall_seconds.value == old.wall_seconds.value
            assert new.wall_seconds.count == old.wall_seconds.count
            assert set(new.arms) == set(old.arms)
        assert (
            clone.observed_selectivity("fp-a")
            == store.observed_selectivity("fp-a")
        )
        assert (
            clone.observed_match_fraction("fp-a")
            == store.observed_match_fraction("fp-a")
        )
        assert (
            clone.observed_group_cardinality("fp-a")
            == store.observed_group_cardinality("fp-a")
        )
        assert clone.best_arm("fp-a") == store.best_arm("fp-a")
        assert clone.crossover_rows() == store.crossover_rows()

    def test_controller_save_load_roundtrip(self, tmp_path):
        controller = AdaptiveController(BENCH_POLICY)
        controller.store = self._seasoned_store()
        path = controller.save_feedback(tmp_path / "feedback.json")
        assert path.is_file()
        warm = AdaptiveController(BENCH_POLICY)
        assert warm.load_feedback(path) == 2
        assert warm.store.best_arm("fp-a") == ("swole", "vectorized")

    def test_load_tolerates_cold_start_conditions(self, tmp_path):
        controller = AdaptiveController()
        missing = tmp_path / "nope.json"
        assert controller.load_feedback(missing) == 0
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert controller.load_feedback(garbage) == 0
        import json as _json

        stale = tmp_path / "stale.json"
        stale.write_text(
            _json.dumps({"version": -1, "feedback": {}})
        )
        assert controller.load_feedback(stale) == 0

    def test_engine_warm_starts_from_saved_snapshot(
        self, micro_db, tmp_path, monkeypatch
    ):
        # A fresh adaptive engine loads the snapshot a prior engine
        # saved (both resolve the same path next to the dataset cache —
        # pinned here to this test's own temp dir so the warm state
        # cannot leak into other tests' fresh engines).
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with Engine(micro_db, adaptive=True) as first:
            for _ in range(3):
                first.execute(mb.q1(30), "auto")
            saved = first.save_feedback()
            assert saved is not None
            recorded = first.adaptive.store.snapshot()["recorded"]
        assert recorded > 0
        with Engine(micro_db, adaptive=True) as warm:
            assert (
                warm.adaptive.store.snapshot()["recorded"] >= recorded
            )

    def test_static_engine_saves_nothing(self, micro_db):
        with Engine(micro_db) as engine:
            assert engine.save_feedback() is None

    def test_shared_controller_skips_warm_start(self, micro_db):
        # Passing a ready controller means the caller owns its state;
        # the engine must not fold a stale snapshot into it.
        controller = AdaptiveController()
        with Engine(micro_db, adaptive=controller) as engine:
            assert engine.adaptive is controller
            assert controller.store.snapshot()["recorded"] == 0


# -- engine integration ---------------------------------------------------


def _clustered_db(rows=150_000):
    return clustered_microbench(
        mb.MicrobenchConfig(
            num_rows=rows, s_rows=500, c_cardinality=64, seed=7
        )
    )


class TestEngineIntegration:
    def test_resolve_adaptive_forms(self):
        assert resolve_adaptive(None) is None
        assert resolve_adaptive(False) is None
        assert isinstance(resolve_adaptive(True), AdaptiveController)
        controller = AdaptiveController()
        assert resolve_adaptive(controller) is controller
        with pytest.raises(TypeError):
            resolve_adaptive("yes")

    def test_static_engine_has_no_loop(self, micro_db):
        engine = Engine(micro_db, registry=MetricsRegistry())
        assert engine.adaptive is None
        engine.execute(mb.q1(30), "auto")
        assert "adaptive" not in engine.registry.snapshot()["sources"]

    def test_drift_recompiles_and_results_stay_identical(self):
        db = _clustered_db()
        engine = Engine(
            db, adaptive=BENCH_POLICY, registry=MetricsRegistry()
        )
        static = Engine(db)
        query = mb.q1(30)
        want = static.execute(query, "swole")
        for _ in range(16):
            got = engine.execute(query, "auto")
            assert results_equal(got, want)
        assert engine.adaptive.recompiles >= 1
        override = engine.adaptive.override_for(
            query_fingerprint(query)
        )
        assert override is not None
        data = db.data("R")
        true_sel = float(np.mean(data["r_x"] < 30))
        assert override.selectivity == pytest.approx(
            true_sel, abs=0.02
        )
        snap = engine.registry.snapshot()
        assert snap["sources"]["adaptive"]["reopt"]["recompiles"] >= 1
        counters = snap["counters"]
        assert any(
            name.startswith("adaptive_recompiles_total")
            for name in counters
        )
        assert any(
            name.startswith("adaptive_explorations_total")
            for name in counters
        )

    def test_every_cell_matches_static_after_drift_and_shift(self):
        # A selectivity shift mid-run, as the adaptation bench drives it:
        # both fingerprints end with measured-statistics overrides, and
        # every strategy x backend compiled under them answers as a
        # static engine does.
        db = _clustered_db()
        engine = Engine(db, adaptive=BENCH_POLICY)
        static = Engine(db)
        queries = (mb.q1(60), mb.q1(30))
        for query in queries:
            for _ in range(16):
                engine.execute(query, "auto")
        for query in queries:
            override = engine.adaptive.override_for(query_fingerprint(query))
            assert override is not None
            for strategy in STRATEGIES:
                assert (
                    engine.compile(query, strategy).notes["spec"].override
                    == override
                )
                for backend in ("instrumented", "vectorized"):
                    got = engine.execute(query, strategy, backend=backend)
                    want = static.execute(query, strategy, backend=backend)
                    assert results_equal(got, want), (
                        query.name, strategy, backend,
                    )

    def test_recompile_on_drift_is_deterministic(self):
        # Same observation sequence -> same override, same re-planned
        # tree, byte-identical explain. Observations are synthetic so
        # wall-clock noise cannot enter the comparison.
        def converge():
            engine = Engine(_clustered_db(), adaptive=BENCH_POLICY)
            query = mb.q1(30)
            fingerprint = query_fingerprint(query)
            estimates = engine.compile(query, "swole").notes[
                "estimated_stats"
            ]
            for i in range(4):
                engine.adaptive.observe(
                    fingerprint,
                    "hybrid",
                    "instrumented",
                    _obs(wall=0.005, selectivity=0.2987 + 0.0001 * i),
                    estimated_stats=estimates,
                )
            override = engine.adaptive.override_for(fingerprint)
            explain = engine.explain(query, "swole")
            return override, explain

        first_override, first_explain = converge()
        second_override, second_explain = converge()
        assert first_override is not None
        assert first_override == second_override
        assert first_explain == second_explain
        assert "== Feedback ==" in first_explain

    def test_override_replans_with_measured_cardinality(self):
        db = _clustered_db()
        engine = Engine(db, adaptive=True)
        query = mb.q1(30)
        fingerprint = query_fingerprint(query)
        before = engine.explain(query, "swole")
        engine.adaptive.reopt.apply_override(
            fingerprint, StatsOverride(selectivity=0.3)
        )
        engine.plan_cache.invalidate(fingerprint)
        after = engine.explain(query, "swole")
        assert before != after

    def test_explain_feedback_only_after_observations(self, micro_db):
        engine = Engine(micro_db, adaptive=True)
        static = Engine(micro_db)
        query = mb.q1(30)
        assert engine.explain(query, "swole") == static.explain(
            query, "swole"
        )
        engine.execute(query, "hybrid", backend="instrumented")
        feedback = engine.explain(query, "swole")
        assert "== Feedback ==" in feedback
        assert "observations: 1" in feedback
        assert "selectivity: estimated" in feedback


class TestTpchEquivalence:
    def test_results_identical_before_and_after_reoptimization(
        self, tpch_db
    ):
        adaptive = Engine(tpch_db, adaptive=True)
        static = Engine(tpch_db)
        for name in PIPELINE_QUERIES:
            plan = logical_plan(name)
            fingerprint = query_fingerprint(plan)
            # Install a deliberately wrong measured selectivity and
            # force the recompile path for every strategy x backend.
            adaptive.adaptive.reopt.apply_override(
                fingerprint, StatsOverride(selectivity=0.42)
            )
            adaptive.plan_cache.invalidate(fingerprint)
            for strategy in STRATEGIES:
                for backend in ("instrumented", "vectorized"):
                    got = adaptive.execute(
                        plan, strategy, backend=backend
                    )
                    want = static.execute(
                        plan, strategy, backend=backend
                    )
                    assert results_equal(got, want), (
                        name, strategy, backend,
                    )

    def test_override_threads_into_compile_tpch(self, tpch_db):
        plan = logical_plan("Q6")
        plain = plan_key(plan, "swole")
        override = StatsOverride(selectivity=0.9)
        overridden = compile_pipeline(
            plan, tpch_db, plain._replace(override=override)
        )
        # The object itself: the shard path ships it to the workers.
        assert overridden.notes["spec"].override is override
        notes = compile_pipeline(plan, tpch_db, plain).notes
        assert notes["spec"].override is None
        assert notes["estimated_stats"] != overridden.notes["estimated_stats"]


# -- fan-out floor knob ---------------------------------------------------


class TestMinParallelRows:
    def test_engine_knob_overrides_program_floor(self, micro_db):
        # 50K rows is under the vectorized program's built-in 256K
        # floor, so by default the scan runs serial; lowering the knob
        # turns the same program parallel.
        default = Engine(micro_db, workers=4)
        floored = Engine(
            micro_db, workers=4,
            knobs=ExecutionKnobs(min_parallel_rows=4096),
        )
        query = mb.q1(30)
        serial = default.execute(query, "swole")
        parallel = floored.execute(query, "swole")
        assert not serial.report.metrics.parallel
        assert parallel.report.metrics.parallel
        assert results_equal(serial, parallel)

    def test_measured_crossover_seeds_sessions(self, micro_db):
        engine = Engine(micro_db, workers=4, adaptive=True)
        assert engine.session().knobs.min_parallel_rows is None
        store = engine.adaptive.store
        store.record(
            "fp", "swole", "vectorized",
            _obs(wall=0.010, scan_rows=1 << 14, parallel=False),
        )
        store.record(
            "fp", "swole", "vectorized",
            _obs(wall=0.002, scan_rows=1 << 14, parallel=True),
        )
        assert engine.session().knobs.min_parallel_rows == 1 << 14
        # An explicit engine knob always wins over the measurement.
        pinned = Engine(
            micro_db, workers=4, adaptive=True,
            knobs=ExecutionKnobs(min_parallel_rows=1 << 20),
        )
        pinned.adaptive.store.record(
            "fp", "swole", "vectorized",
            _obs(wall=0.010, scan_rows=1 << 14, parallel=False),
        )
        pinned.adaptive.store.record(
            "fp", "swole", "vectorized",
            _obs(wall=0.002, scan_rows=1 << 14, parallel=True),
        )
        assert pinned.session().knobs.min_parallel_rows == 1 << 20


# -- plan cache satellite -------------------------------------------------


class TestTargetedInvalidation:
    def test_invalidate_by_fingerprint(self):
        # Every strategy x backend x encoding cell of the drifted plan
        # goes; another plan's entry stays.
        cache = PlanCache(capacity=16)
        doomed = [
            plan_key(mb.q1(30), strategy, backend=backend, encoding=encoding)
            for strategy in ("swole", "hybrid")
            for backend in ("vectorized", "instrumented")
            for encoding in ("auto", "off")
        ]
        kept = plan_key(mb.q1(31), "swole", backend="vectorized")
        for key in doomed + [kept]:
            cache.put(key, object())
        assert cache.invalidate(doomed[0].fingerprint) == 8
        assert cache.keys() == [kept]
        assert cache.stats.invalidations == 8
        assert cache.invalidate("missing") == 0

    def test_invalidate_where(self):
        cache = PlanCache(capacity=8)
        keys = {
            backend: plan_key(mb.q1(30), "swole", backend=backend)
            for backend in ("vectorized", "instrumented")
        }
        for key in keys.values():
            cache.put(key, object())
        dropped = cache.invalidate_where(
            lambda key: key.backend == "instrumented"
        )
        assert dropped == 1
        assert cache.keys() == [keys["vectorized"]]

    def test_full_invalidate_still_counts_once(self):
        cache = PlanCache(capacity=8)
        for sel in range(3):
            cache.put(plan_key(mb.q1(sel), "swole"), object())
        assert cache.invalidate() == 3
        assert cache.stats.invalidations == 1
