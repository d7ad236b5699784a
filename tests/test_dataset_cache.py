"""Dataset cache: fingerprinting, both layers, and round-trip fidelity."""

import json

import numpy as np
import pytest

from repro.datagen import microbench as mb
from repro.datagen import tpch
from repro.datagen.cache import (
    DatasetCache,
    dataset_fingerprint,
    load_dataset,
)
from repro.engine import Engine
from repro.engine.machine import PAPER_MACHINE
from repro.engine.program import results_equal
from repro.errors import DataGenError
from repro.tpch import logical_plan

SMALL = mb.MicrobenchConfig(num_rows=4_000, s_rows=64, c_cardinality=8)


def databases_equal(a, b):
    assert a.catalog.table_names == b.catalog.table_names
    for name in a.catalog.table_names:
        ta, tb = a.table(name), b.table(name)
        for ca in ta.iter_columns():
            cb = tb.column(ca.name)
            np.testing.assert_array_equal(
                np.asarray(ca.values), np.asarray(cb.values)
            )
            assert ca.logical_type == cb.logical_type
            assert ca.dictionary == cb.dictionary
            assert ca.scale == cb.scale


class TestFingerprint:
    def test_deterministic(self):
        assert dataset_fingerprint("microbench", SMALL) == (
            dataset_fingerprint("microbench", SMALL)
        )

    def test_config_change_invalidates(self):
        base = dataset_fingerprint("microbench", SMALL)
        for other in (
            mb.MicrobenchConfig(num_rows=4_001, s_rows=64, c_cardinality=8),
            mb.MicrobenchConfig(
                num_rows=4_000, s_rows=64, c_cardinality=8, seed=99
            ),
        ):
            assert dataset_fingerprint("microbench", other) != base

    def test_generator_name_in_key(self):
        a = dataset_fingerprint("microbench", SMALL)
        b = dataset_fingerprint("tpch", SMALL)
        assert a != b


class TestMemoryLayer:
    def test_miss_then_memory_hit_returns_same_object(self, tmp_path):
        cache = DatasetCache(cache_dir=tmp_path)
        first = cache.load("microbench", SMALL)
        assert cache.last_source == "generated"
        second = cache.load("microbench", SMALL)
        assert cache.last_source == "memory"
        assert second is first
        snap = cache.stats.snapshot()
        assert snap["misses"] == 1
        assert snap["memory_hits"] == 1
        assert snap["stores"] == 1

    def test_lru_eviction(self, tmp_path):
        cache = DatasetCache(cache_dir=tmp_path, memory_entries=1)
        cache.load("microbench", SMALL)
        cache.load(
            "microbench",
            mb.MicrobenchConfig(num_rows=4_096, s_rows=64, c_cardinality=8),
        )
        assert cache.stats.evictions == 1
        # evicted entry comes back from disk, not regeneration
        cache.load("microbench", SMALL)
        assert cache.last_source == "disk"


class TestDiskLayer:
    def test_fresh_cache_hits_disk(self, tmp_path):
        DatasetCache(cache_dir=tmp_path).load("microbench", SMALL)
        cache = DatasetCache(cache_dir=tmp_path)  # cold process stand-in
        db = cache.load("microbench", SMALL)
        assert cache.last_source == "disk"
        assert cache.stats.disk_hits == 1
        databases_equal(db, mb.generate(SMALL))

    def test_tpch_round_trip_preserves_foreign_keys(self, tmp_path):
        config = tpch.TpchConfig(scale_factor=0.001)
        DatasetCache(cache_dir=tmp_path).load("tpch", config)
        cache = DatasetCache(cache_dir=tmp_path)
        db = cache.load("tpch", config)
        assert cache.last_source == "disk"
        fresh = tpch.generate(config)
        databases_equal(db, fresh)
        machine = PAPER_MACHINE.scaled(config.machine_scale)
        from_disk = Engine(db, machine=machine).execute(
            logical_plan("Q6"), "swole", workers=2
        )
        from_gen = Engine(fresh, machine=machine).execute(
            logical_plan("Q6"), "swole", workers=2
        )
        assert results_equal(from_disk, from_gen)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DatasetCache(cache_dir=tmp_path)
        cache.load("microbench", SMALL)
        key = dataset_fingerprint("microbench", SMALL)
        (tmp_path / key / "meta.json").write_text("{not json")
        cold = DatasetCache(cache_dir=tmp_path)
        cold.load("microbench", SMALL)
        assert cold.last_source == "generated"

    def test_clear_drops_both_layers(self, tmp_path):
        cache = DatasetCache(cache_dir=tmp_path)
        cache.load("microbench", SMALL)
        cache.clear()
        assert not tmp_path.exists()
        cache.load("microbench", SMALL)
        assert cache.last_source == "generated"


def _rewrite_meta(entry, edit):
    meta = json.loads((entry / "meta.json").read_text())
    (entry / "meta.json").write_text(json.dumps(edit(meta)))


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _set_columns(meta, columns):
    meta["tables"][0]["columns"] = columns
    return meta


#: Ways an on-disk entry goes bad: wrong-shape metadata, truncation.
CORRUPTIONS = {
    "meta_is_a_list": lambda entry: _rewrite_meta(entry, lambda meta: []),
    "tables_is_an_int": lambda entry: _rewrite_meta(
        entry, lambda meta: {**meta, "tables": 5}
    ),
    "columns_is_a_string": lambda entry: _rewrite_meta(
        entry, lambda meta: _set_columns(meta, "abc")
    ),
    "meta_truncated": lambda entry: _truncate(entry / "meta.json"),
    "codes_truncated": lambda entry: _truncate(
        next(entry.glob("*.codes.npy"))
    ),
}


class TestCorruptEntryHeals:
    """A corrupt entry is a miss once: the regenerated dataset replaces
    it, so the next process loads from disk and shard workers (which
    only ever load by fingerprint) start."""

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_next_process_loads_from_disk(self, tmp_path, corruption):
        DatasetCache(cache_dir=tmp_path).load("microbench", SMALL)
        CORRUPTIONS[corruption](
            tmp_path / dataset_fingerprint("microbench", SMALL)
        )
        healing = DatasetCache(cache_dir=tmp_path)
        healing.load("microbench", SMALL)
        assert healing.last_source == "generated"
        cache = DatasetCache(cache_dir=tmp_path)
        db = cache.load("microbench", SMALL)
        assert cache.last_source == "disk"
        databases_equal(db, mb.generate(SMALL))
        with Engine(db, shards=1) as engine:
            assert engine.start_shards().snapshot()["alive"] == 1


class TestValidation:
    def test_unknown_generator(self, tmp_path):
        with pytest.raises(DataGenError, match="unknown dataset generator"):
            DatasetCache(cache_dir=tmp_path).load("nope")

    def test_wrong_config_type(self, tmp_path):
        with pytest.raises(DataGenError, match="expects a TpchConfig"):
            DatasetCache(cache_dir=tmp_path).load("tpch", SMALL)

    def test_bad_capacity(self, tmp_path):
        with pytest.raises(DataGenError):
            DatasetCache(cache_dir=tmp_path, memory_entries=0)


class TestProcessWideCache:
    def test_load_dataset_uses_isolated_dir(self):
        # the conftest fixture points REPRO_CACHE_DIR at a temp dir
        db = load_dataset("microbench", SMALL)
        again = load_dataset("microbench", SMALL)
        assert again is db
