"""Key sets: the NumPy tier's one membership primitive.

Every hash build, hash probe and IN-list of the generated kernels goes
through :func:`repro.codegen.npexec.key_set` / :func:`~repro.codegen.
npexec.member`. These tests pin

* the primitive against ``np.isin`` as a property over int8/16/32/64
  builds and probes, plus its edges: empty build or probe, one key, a
  spread exactly at the dense bound and one past it, negative keys, and
  keys at both ends of int64 probed with the other end;
* ``InSet`` through ``Engine.execute`` on both backends against the
  reference evaluator: an empty list, duplicates, constants outside the
  column's dtype range, 8 and 9 members, and a non-column child;
* the hash-heavy TPC-H cells under ``workers=2`` and ``shards=2``;
* that no generated kernel spells membership any other way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codegen.lower import lower_plan
from repro.codegen.npexec import (
    KEY_SET_MIN_SPREAD,
    key_set,
    key_set_limit,
    member,
)
from repro.codegen.vectorize import compile_physical
from repro.datagen import tpch as tpchgen
from repro.datagen.cache import load_dataset
from repro.engine import Engine, ExecutionKnobs, reference
from repro.engine.machine import PAPER_MACHINE
from repro.plan.builder import PlanBuilder
from repro.plan.expressions import Arith, Col, Const, InSet
from repro.plan.ops import AggSpec
from repro.plan.passes import run_passes
from repro.storage.column import Column, LogicalType
from repro.storage.database import Database
from repro.storage.table import Table
from repro.tpch import (
    PIPELINE_QUERIES,
    STRATEGIES,
    logical_plan,
    reference_result,
)

from .conftest import assert_value_equals

INT_DTYPES = (np.int8, np.int16, np.int32, np.int64)
I64_MIN, I64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _int_arrays(dtype, max_size):
    return hnp.arrays(dtype, st.integers(0, max_size))


def _assert_member(values, keys):
    ks = key_set(keys)
    assert ks.keys.dtype == np.int64
    assert np.array_equal(ks.keys, np.unique(keys).astype(np.int64))
    got = member(values, ks)
    assert got.dtype == bool
    assert np.array_equal(got, np.isin(values, keys)), (values, keys)
    return ks


class TestPrimitive:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(INT_DTYPES).flatmap(
            lambda build: st.tuples(
                _int_arrays(build, 40),
                st.sampled_from(INT_DTYPES).flatmap(
                    lambda probe: _int_arrays(probe, 40)
                ),
            )
        )
    )
    def test_matches_isin(self, arrays):
        keys, values = arrays
        _assert_member(values, keys)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-300, 300), max_size=30),
        st.lists(st.integers(-400, 400), max_size=60),
    )
    def test_matches_isin_near_the_keys(self, keys, values):
        # Drawn from overlapping ranges, so most probes hit or miss by a
        # neighbour rather than by a mile.
        _assert_member(
            np.asarray(values, dtype=np.int64), np.asarray(keys, dtype=np.int64)
        )

    def test_empty_build(self):
        ks = _assert_member(np.arange(-3, 4), np.empty(0, dtype=np.int32))
        assert ks.keys.shape == (0,)

    def test_empty_probe(self):
        got = member(np.empty(0, dtype=np.int64), key_set(np.arange(5)))
        assert got.shape == (0,) and got.dtype == bool

    def test_single_key(self):
        ks = _assert_member(np.arange(-2, 10), np.full(4, 7, dtype=np.int16))
        assert ks.present is not None and ks.keys.tolist() == [7]

    def test_negative_keys(self):
        _assert_member(
            np.arange(-40, 10, dtype=np.int32),
            np.asarray([-30, -7, -7, -1, 3], dtype=np.int8),
        )

    @pytest.mark.parametrize("extra, dense", [(0, True), (1, False)])
    def test_spread_at_the_bound(self, extra, dense):
        rows = 3
        spread = key_set_limit(rows) + extra
        assert key_set_limit(rows) == KEY_SET_MIN_SPREAD
        keys = np.asarray([-5, 11, -5 + spread], dtype=np.int64)
        values = np.asarray(
            [-6, -5, -4, 11, 12, -5 + spread - 1, -5 + spread, -4 + spread]
        )
        ks = _assert_member(values, keys)
        assert (ks.present is not None) is dense

    def test_bound_grows_per_build_key(self):
        rows = KEY_SET_MIN_SPREAD
        keys = np.arange(rows, dtype=np.int64)
        keys[-1] = key_set_limit(rows)
        assert key_set(keys).present is not None
        keys[-1] += 1
        assert key_set(keys).present is None

    @pytest.mark.parametrize("build", [I64_MIN, I64_MAX])
    def test_extremes_do_not_wrap_into_the_table(self, build):
        ks = _assert_member(
            np.asarray([I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX - 1, I64_MAX]),
            np.asarray([build], dtype=np.int64),
        )
        assert ks.present is not None and ks.lo == build

    def test_extremes_at_both_ends_are_sparse(self):
        _assert_member(
            np.asarray([I64_MIN, I64_MIN + 1, 0, I64_MAX - 1, I64_MAX]),
            np.asarray([I64_MIN, I64_MAX], dtype=np.int64),
        )

    def test_zero_dimensional_probe(self):
        ks = key_set(np.asarray([3, 9]))
        assert bool(member(np.asarray(np.int64(9)), ks))
        assert not bool(member(np.asarray(np.int64(I64_MIN)), ks))

    def test_inexact_values_take_isin(self):
        ks = key_set(np.asarray([2, 3]))
        floats = np.asarray([2.0, 2.5, 3.0])
        assert member(floats, ks).tolist() == [True, False, True]
        big = np.asarray([2, 2**64 - 2], dtype=np.uint64)
        assert member(big, key_set(np.asarray([2, -2]))).tolist() == [
            True, False,
        ]


@pytest.fixture(scope="module")
def inset_db():
    rng = np.random.default_rng(7)
    n = 5_000
    db = Database()
    db.add_table(
        Table(
            name="t",
            columns=(
                Column("a", LogicalType.INT8, rng.integers(-20, 21, n)),
                Column("b", LogicalType.INT32, rng.integers(0, 40, n)),
                Column("v", LogicalType.INT32, rng.integers(0, 1000, n)),
            ),
        )
    )
    return db


INSET_CASES = {
    "empty": InSet(Col("a"), []),
    "duplicates": InSet(Col("a"), [3, 3, -4, 3, -4]),
    "outside_dtype": InSet(Col("a"), [-129, 5, 128, 300, -1000]),
    "only_outside_dtype": InSet(Col("a"), [200, -200]),
    "eight": InSet(Col("b"), [1, 3, 5, 7, 9, 11, 13, 15]),
    "nine": InSet(Col("b"), [1, 3, 5, 7, 9, 11, 13, 15, 17]),
    "nine_outside_dtype": InSet(
        Col("a"), [-300, -20, -2, 0, 2, 20, 127, 128, 2**40]
    ),
    "arith_child": InSet(Arith("add", Col("a"), Col("b")), [0, 10, 20]),
    "arith_child_long": InSet(
        Arith("mul", Col("a"), Const(3)), list(range(-30, 31, 6))
    ),
}


class TestInSetThroughTheEngine:
    @pytest.mark.parametrize("case", sorted(INSET_CASES))
    @pytest.mark.parametrize("backend", ["vectorized", "instrumented"])
    def test_matches_reference(self, inset_db, case, backend):
        plan = (
            PlanBuilder.scan("t")
            .filter(INSET_CASES[case])
            .group_agg(
                AggSpec("sum", Col("v"), name="s"),
                AggSpec("count", name="c"),
                key="b",
            )
            .build(f"inset-{case}")
        )
        expected = reference.evaluate(plan, inset_db)
        engine = Engine(inset_db)
        for strategy in STRATEGIES:
            result = engine.execute(plan, strategy, backend=backend)
            assert_value_equals(expected, result.value, (case, strategy))


class TestHashCellsInParallel:
    """The hash-probe cells, split over threads and over shard
    processes, answer what the reference answers."""

    @pytest.fixture(scope="class")
    def engine(self):
        db = load_dataset("tpch", tpchgen.TpchConfig(scale_factor=0.002))
        with Engine(
            db,
            machine=PAPER_MACHINE,
            workers=2,
            shards=2,
            # Small morsels and no fan-out floor: the tiny tables split.
            knobs=ExecutionKnobs(min_parallel_rows=1, morsel_rows=1000),
        ) as engine:
            yield engine

    @pytest.mark.parametrize("name", ["Q3", "Q4", "Q5"])
    @pytest.mark.parametrize("strategy", ["datacentric", "hybrid"])
    def test_threads_and_shards(self, engine, name, strategy):
        plan = logical_plan(name)
        expected = reference_result(name, engine.db)
        threads = engine.execute(plan, strategy, workers=2, shards=0)
        sharded = engine.execute(plan, strategy, shards=2)
        # Q5 probes lineitem, a scan long enough to split here; Q3's
        # groupjoin runs whole and Q4's orders scan is under one morsel.
        assert threads.metrics.parallel == (name == "Q5")
        assert sharded.metrics.sharded == (name == "Q5")
        assert_value_equals(expected, threads.value, (name, "threads"))
        assert_value_equals(expected, sharded.value, (name, "shards"))


#: What a generated kernel must not spell: membership is ``_key_set`` /
#: ``_member``, never a sort or a binary search.
SORTING_MEMBERSHIP = ("np.isin(", "np.unique(", "np.searchsorted")


@pytest.mark.parametrize("encoding", ["auto", "off"])
def test_generated_kernels_use_key_sets(tpch_db, encoding):
    for name in PIPELINE_QUERIES:
        for strategy in STRATEGIES:
            bound, decisions, _ = run_passes(
                logical_plan(name), tpch_db, PAPER_MACHINE, strategy,
                encoding=encoding,
            )
            physical = lower_plan(bound, decisions, tpch_db, strategy)
            for counting in (False, True):
                source = compile_physical(
                    physical, tpch_db, name=name, counting=counting
                ).source
                for spelling in SORTING_MEMBERSHIP:
                    assert spelling not in source, (
                        name, strategy, encoding, counting, spelling,
                    )
