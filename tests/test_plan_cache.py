"""Plan cache: keying, LRU eviction, counters, invalidation."""

import pytest

from repro.datagen import microbench as mb
from repro.engine.machine import PAPER_MACHINE
from repro.engine.plan_cache import (
    PlanCache,
    machine_fingerprint,
    plan_key,
    query_fingerprint,
)
from repro.errors import ReproError


def _program(name="p"):
    from repro.engine.program import CompiledQuery

    return CompiledQuery(
        name=name, strategy="hybrid", source="", _fn=lambda session: {}
    )


class TestKeys:
    def test_query_fingerprint_stable(self):
        assert query_fingerprint(mb.q1(30)) == query_fingerprint(mb.q1(30))

    def test_query_fingerprint_separates_constants(self):
        assert query_fingerprint(mb.q1(30)) != query_fingerprint(mb.q1(31))

    def test_tpch_names_addressed_directly(self):
        # A TPC-H name addresses an operator tree, which keys on its
        # IR fingerprint like any other plan; there is no name keying —
        # the string itself is rejected at the door.
        from repro.plan.ops import plan_fingerprint
        from repro.tpch import logical_plan

        for name in ("Q1", "Q4", "Q13"):
            plan = logical_plan(name)
            assert query_fingerprint(plan) == plan_fingerprint(plan)
            assert query_fingerprint(plan).startswith("ir:")
            with pytest.raises(ReproError, match="logical_plan"):
                query_fingerprint(name)

    def test_legacy_query_shares_ir_fingerprint(self):
        from repro.plan.ops import from_query, plan_fingerprint

        q = mb.q1(30)
        assert query_fingerprint(q) == plan_fingerprint(from_query(q))

    def test_machine_fingerprint_separates_scales(self):
        assert machine_fingerprint(PAPER_MACHINE) != machine_fingerprint(
            PAPER_MACHINE.scaled(0.01)
        )

    def test_plan_key_separates_strategy_and_tile(self):
        base = plan_key(mb.q1(30), "swole", PAPER_MACHINE, 1024)
        assert base != plan_key(mb.q1(30), "hybrid", PAPER_MACHINE, 1024)
        assert base != plan_key(mb.q1(30), "swole", PAPER_MACHINE, 4096)
        assert base == plan_key(mb.q1(30), "swole", PAPER_MACHINE, 1024)


class TestCacheBehaviour:
    def test_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", _program())
        assert cache.get("k") is not None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_get_or_compile_counts_compilations(self):
        cache = PlanCache(capacity=4)
        calls = []

        def compile_fn():
            calls.append(1)
            return _program()

        first, was_hit = cache.get_or_compile("k", compile_fn)
        assert not was_hit
        second, was_hit = cache.get_or_compile("k", compile_fn)
        assert was_hit
        assert second is first
        assert len(calls) == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.put("a", _program("a"))
        cache.put("b", _program("b"))
        assert cache.get("a") is not None  # refresh a; b is now LRU
        cache.put("c", _program("c"))
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_invalidate_clears_and_counts(self):
        cache = PlanCache(capacity=4)
        cache.put("a", _program())
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        assert cache.get("a") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            PlanCache(capacity=0)

    def test_snapshot_shape(self):
        stats = PlanCache(capacity=2).stats
        snap = stats.snapshot()
        assert set(snap) == {
            "hits", "misses", "evictions", "invalidations", "hit_rate"
        }
