"""Plan cache: the compile spec, LRU eviction, counters, invalidation."""

import json

import pytest

from repro.codegen.pipeline import compile_pipeline
from repro.datagen import microbench as mb
from repro.engine import Engine
from repro.engine.costing import StatsOverride
from repro.engine.machine import PAPER_MACHINE
from repro.engine.plan_cache import (
    CompileSpec,
    PlanCache,
    plan_key,
    query_fingerprint,
)
from repro.errors import PlanError, ReproError


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

    def test_plan_key_separates_what_compilation_reads(self):
        base = plan_key(mb.q1(30), "swole", PAPER_MACHINE, 1024)
        assert base == plan_key(mb.q1(30), "swole", PAPER_MACHINE, 1024)
        assert hash(base) == hash(
            plan_key(mb.q1(30), "swole", PAPER_MACHINE, 1024)
        )
        assert base != plan_key(mb.q1(31), "swole", PAPER_MACHINE, 1024)
        assert base != plan_key(mb.q1(30), "hybrid", PAPER_MACHINE, 1024)
        assert base != plan_key(
            mb.q1(30), "swole", PAPER_MACHINE.scaled(0.01), 1024
        )
        assert base != base._replace(backend="vectorized")
        assert base != base._replace(encoding="off")
        assert base != base._replace(override=StatsOverride(selectivity=0.5))

    def test_plan_key_as_the_ledger_calls_it(self):
        # ledger/layers.py:285 pins the positional signature; tile and
        # shards select no program, so they select no cache entry.
        q, m = mb.q1(30), PAPER_MACHINE
        spec = plan_key(q, "swole", m, 1024, "vectorized", 0, "auto")
        assert spec == CompileSpec(
            query_fingerprint(q), "swole", "vectorized", m, "auto", None
        )
        for tile, shards in ((4096, 0), (1024, 2), (0, 8)):
            assert spec == plan_key(
                q, "swole", m, tile, "vectorized", shards, "auto"
            )

    @pytest.mark.parametrize(
        "override",
        [None, StatsOverride(selectivity=0.25, group_cardinality=7)],
    )
    def test_spec_wire_roundtrip(self, override):
        spec = plan_key(mb.q1(30), "swole", backend="vectorized")._replace(
            override=override
        )
        wire = json.loads(json.dumps(spec.to_wire()))
        assert "machine" not in wire
        assert CompileSpec.from_wire(wire, PAPER_MACHINE) == spec

    @pytest.mark.parametrize(
        "wire",
        [
            None,
            [],
            {"fingerprint": "ir:0", "strategy": "swole"},
            {
                "fingerprint": "ir:0", "strategy": ["swole"],
                "backend": "vectorized", "encoding": "auto",
                "override": None,
            },
            {
                "fingerprint": "ir:0", "strategy": "swole",
                "backend": "vectorized", "encoding": "auto",
                "override": {"selectivty": 0.5},
            },
        ],
    )
    def test_malformed_spec_wire_is_a_plan_error(self, wire):
        with pytest.raises(PlanError, match="malformed compile spec"):
            CompileSpec.from_wire(wire, PAPER_MACHINE)


class TestSpecCarried:
    """The spec the engine mints is the object every later layer holds."""

    def test_notes_carry_the_cache_key(self, micro_db):
        engine = Engine(micro_db, backend="vectorized", encoding="off")
        compiled = engine.compile(mb.q1(30), "hybrid")
        (key,) = engine.plan_cache.keys()
        spec = compiled.notes["spec"]
        assert spec is key
        assert spec == plan_key(
            mb.q1(30), "hybrid", engine.machine,
            backend="vectorized", encoding="off",
        )
        assert compiled.notes["fingerprint"] == spec.fingerprint
        assert not {"requested_backend", "encoding", "stats_override"} & set(
            compiled.notes
        )

    def test_compile_miss_never_rehashes_the_plan(
        self, micro_db, monkeypatch
    ):
        import repro.codegen.pipeline as pipeline_mod
        import repro.engine.plan_cache as plan_cache_mod
        import repro.plan.ops as ops_mod

        plan = ops_mod.from_query(mb.q1(30))
        spec = plan_key(plan, "swole")

        def rehash(_plan):
            raise AssertionError("plan fingerprinted past the door")

        monkeypatch.setattr(ops_mod, "plan_fingerprint", rehash)
        monkeypatch.setattr(plan_cache_mod, "plan_fingerprint", rehash)
        assert not hasattr(pipeline_mod, "plan_fingerprint")
        compiled = compile_pipeline(plan, micro_db, spec)
        assert spec.fingerprint in compiled.source


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
