"""Tests for the shared open-addressing hash table."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.hashtable import EMPTY, NULL_KEY, HashTable
from repro.errors import ExecutionError


class TestGeometry:
    def test_capacity_is_power_of_two_at_double_fill(self):
        table = HashTable(expected_keys=100)
        assert table.capacity == 256

    def test_minimum_capacity(self):
        assert HashTable(expected_keys=0).capacity == 8

    def test_nbytes_counts_key_and_aggs(self):
        table = HashTable(expected_keys=4, num_aggs=2)
        assert table.slot_bytes == 8 + 16
        assert table.nbytes == table.capacity * table.slot_bytes

    def test_negative_args_rejected(self):
        with pytest.raises(ExecutionError):
            HashTable(expected_keys=-1)
        with pytest.raises(ExecutionError):
            HashTable(expected_keys=1, num_aggs=-1)


class TestAggregate:
    def test_simple_sums(self):
        table = HashTable(expected_keys=3)
        table.aggregate(np.asarray([1, 2, 1, 1]), np.asarray([10, 20, 30, 40]))
        assert table.get(1) == 80
        assert table.get(2) == 20
        assert table.get(3) is None

    def test_duplicate_keys_within_batch(self):
        table = HashTable(expected_keys=1)
        table.aggregate(np.asarray([7] * 100), np.ones(100, dtype=np.int64))
        assert table.get(7) == 100
        assert table.num_entries == 1

    def test_multiple_agg_columns(self):
        table = HashTable(expected_keys=2, num_aggs=2)
        keys = np.asarray([1, 2, 1])
        table.aggregate(keys, np.asarray([1, 2, 3]), agg=0)
        table.aggregate(keys, np.asarray([10, 20, 30]), agg=1)
        assert table.get(1, agg=0) == 4
        assert table.get(1, agg=1) == 40

    def test_agg_out_of_range(self):
        table = HashTable(expected_keys=2, num_aggs=1)
        with pytest.raises(ExecutionError):
            table.add_at(np.asarray([0]), 1, np.asarray([1]))

    def test_negative_keys_supported(self):
        table = HashTable(expected_keys=2)
        table.aggregate(np.asarray([-5, -5]), np.asarray([1, 2]))
        assert table.get(-5) == 3

    def test_null_key_is_ordinary(self):
        table = HashTable(expected_keys=2)
        table.aggregate(
            np.asarray([NULL_KEY, 1], dtype=np.int64), np.asarray([5, 6])
        )
        assert table.get(int(NULL_KEY)) == 5

    def test_sentinel_keys_rejected(self):
        table = HashTable(expected_keys=2)
        with pytest.raises(ExecutionError):
            table.insert_keys(np.asarray([EMPTY], dtype=np.int64))

    def test_empty_batch(self):
        table = HashTable(expected_keys=2)
        table.aggregate(np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64))
        assert table.num_entries == 0


class TestLookup:
    def test_found_and_missing(self):
        table = HashTable(expected_keys=4)
        table.insert_keys(np.asarray([10, 20]))
        slots, found = table.lookup(np.asarray([10, 30, 20]))
        assert found.tolist() == [True, False, True]

    def test_collision_heavy_batch(self):
        # many keys in a small table force long probe chains
        table = HashTable(expected_keys=128)
        keys = np.arange(0, 256, 2)[:128]
        table.insert_keys(keys)
        assert table.lookup(keys)[1].all()
        assert not table.lookup(keys + 1)[1].any()


class TestItems:
    def test_items_sorted_by_key(self):
        table = HashTable(expected_keys=8)
        table.aggregate(np.asarray([5, 1, 9]), np.asarray([1, 2, 3]))
        keys, aggs = table.items()
        assert keys.tolist() == [1, 5, 9]
        assert aggs[:, 0].tolist() == [2, 1, 3]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-1000, max_value=1000),
            st.integers(min_value=-100, max_value=100),
        ),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=60, deadline=None)
def test_aggregate_matches_counter(pairs):
    """Property: the table agrees with a plain dict-based aggregation."""
    keys = np.asarray([k for k, _ in pairs], dtype=np.int64)
    deltas = np.asarray([d for _, d in pairs], dtype=np.int64)
    table = HashTable(expected_keys=len(set(keys.tolist())))
    table.aggregate(keys, deltas)
    expected = collections.Counter()
    for key, delta in pairs:
        expected[key] += delta
    got_keys, got_aggs = table.items()
    assert dict(zip(got_keys.tolist(), got_aggs[:, 0].tolist())) == dict(
        expected
    )
