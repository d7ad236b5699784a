"""Tests for the shared kernel library: correctness + emitted events."""

import numpy as np
import pytest

from repro.engine import kernels as K
from repro.engine.events import (
    Branch,
    CondRead,
    Compute,
    RandomAccess,
    SeqRead,
)
from repro.engine.hashtable import NULL_KEY, HashTable
from repro.errors import ExecutionError


@pytest.fixture()
def values(rng):
    return rng.integers(0, 100, 10_000).astype(np.int32)


def events_of(session, kind):
    return [e for _, e, _ in session.tracer.report.events if isinstance(e, kind)]


class TestPredicates:
    def test_compare_result_and_events(self, session, values):
        mask = K.compare(session, values, "<", 13, "x")
        assert np.array_equal(mask, values < 13)
        assert len(events_of(session, SeqRead)) == 1
        assert len(events_of(session, Compute)) == 1

    def test_compare_simd_flag(self, session, values):
        K.compare(session, values, "<", 13, "x", simd=False)
        (compute,) = events_of(session, Compute)
        assert compute.simd is False

    def test_compare_unknown_op(self, session, values):
        with pytest.raises(ExecutionError):
            K.compare(session, values, "~~", 13, "x")

    def test_compare_columns(self, session, rng):
        a = rng.integers(0, 50, 1000)
        b = rng.integers(0, 50, 1000)
        mask = K.compare_columns(session, a, b, "<", ("a", "b"))
        assert np.array_equal(mask, a < b)
        assert len(events_of(session, SeqRead)) == 2

    def test_isin(self, session, values):
        mask = K.isin(session, values, [1, 5, 9], "x")
        assert np.array_equal(mask, np.isin(values, [1, 5, 9]))

    def test_string_match_charges_per_tuple(self, session):
        mask = np.asarray([True, False, True])
        K.string_match(session, mask, "comment")
        (compute,) = [
            e for e in events_of(session, Compute) if e.op == "strcmp"
        ]
        assert compute.n == 3 and compute.simd is False


class TestSelectionAndGather:
    def test_selection_vector_no_branch(self, session):
        mask = np.asarray([True, False, True, True])
        idx = K.selection_vector(session, mask)
        assert idx.tolist() == [0, 2, 3]
        assert not events_of(session, Branch)
        assert any(e.op == "select" for e in events_of(session, Compute))

    def test_selection_vector_branching(self, session):
        mask = np.asarray([True, False])
        K.selection_vector(session, mask, branching=True)
        assert events_of(session, Branch)

    def test_gather_values_and_events(self, session, values):
        idx = np.asarray([0, 10, 20])
        out = K.gather(session, values, idx, "x")
        assert np.array_equal(out, values[idx])
        (cond,) = events_of(session, CondRead)
        assert cond.n_selected == 3
        assert cond.n_range == values.shape[0]

    def test_conditional_read(self, session, values):
        mask = values < 5
        out = K.conditional_read(session, values, mask, "x")
        assert np.array_equal(out, values[mask])
        (cond,) = events_of(session, CondRead)
        assert cond.n_selected == int(mask.sum())


class TestHashKernels:
    def test_ht_aggregate_and_lookup(self, session, rng):
        table = HashTable(expected_keys=50)
        keys = rng.integers(0, 50, 5000)
        K.ht_aggregate(session, table, keys, np.ones(5000, dtype=np.int64))
        slots, found = K.ht_lookup(session, table, np.arange(50))
        assert found.all()
        assert len(events_of(session, RandomAccess)) == 2

    def test_null_key_fraction_marked_hot(self, session):
        table = HashTable(expected_keys=10)
        keys = np.asarray([NULL_KEY] * 90 + list(range(10)), dtype=np.int64)
        K.ht_aggregate(session, table, keys, np.ones(100, dtype=np.int64))
        (event,) = events_of(session, RandomAccess)
        assert event.hot_fraction == pytest.approx(0.9)

    def test_prefetch_flag_propagates(self, session):
        session.knobs.ht_prefetch = True
        table = HashTable(expected_keys=10)
        K.ht_insert_keys(session, table, np.arange(10))
        (event,) = events_of(session, RandomAccess)
        assert event.prefetched is True


class TestProbeLength:
    """Hash accesses are priced from occupancy at build completion."""

    def test_knuth_expected_probes(self):
        assert K.probe_length(0.0) == 1.0
        assert K.probe_length(0.0, hit=0.0) == 1.0
        assert K.probe_length(0.5) == 1.5
        assert K.probe_length(0.5, hit=0.0) == 2.5
        assert K.probe_length(0.5, hit=0.5) == 2.0

    def test_cycles_grow_with_occupancy_and_misses(self, session):
        base = session.machine.op_cost("hash")
        assert K.ht_op_cycles(session, 0, 16) == base
        assert K.ht_op_cycles(session, 8, 16) == base + 1.0
        assert K.ht_op_cycles(session, 8, 16, hit=0.0) == base + 3.0

    def test_kernels_price_the_table_they_filled(self, session):
        table = HashTable(expected_keys=4)  # 8 slots
        K.ht_insert_keys(session, table, np.arange(4))
        K.ht_lookup(session, table, np.asarray([0, 1, 100, 200]))
        insert, lookup = events_of(session, RandomAccess)
        base = session.machine.op_cost("hash")
        assert insert.op_cycles == base + 1.0  # alpha 0.5, every key new
        assert lookup.op_cycles == base + 2.0  # alpha 0.5, half miss

    def test_a_table_without_an_empty_slot_is_full(self, session):
        with pytest.raises(ExecutionError, match="hash table is full"):
            K.ht_op_cycles(session, 8, 8)


class TestOverheadKernels:
    def test_scalar_loop(self, session):
        K.scalar_loop(session, 100)
        assert session.tracer.report.total_cycles == pytest.approx(
            100 * session.machine.scalar_loop_cycles
        )

    def test_interpreter_overhead_scales_with_operators(self, session):
        K.interpreter_overhead(session, 100, operators=3)
        assert session.tracer.report.total_cycles == pytest.approx(
            300 * session.machine.interpreter_tuple_cycles
        )
