"""The vectorized backend is a drop-in replacement, bit for bit.

The contract of :mod:`repro.codegen.vectorize` is byte-identity: for
every query the engine can run, the generated NumPy kernels — and the
native C kernel that replaces a hot program's final pipeline — must
return exactly what the instrumented backend returns — same keys, same
aggregates, same Python scalar types — under every strategy, serially
and morsel-parallel. The instrumented backend runs those same kernels
(counting, one block per table), so every cell is also checked against
an independent answer: ``reference_result``, ``engine/reference.py``,
or one computed in the test. These tests pin that contract:

* the full TPC-H pipeline sweep (8 queries x 4 strategies, 32 cells),
  serial and parallel (``morsel_rows`` pinned to defeat the vectorized
  fan-out floor, so the parallel path really executes);
* the Fig. 7/8 microbenchmark queries, including the division variant
  (floor semantics and the divide-by-zero guard);
* the degenerate plan shapes from the pipeline edge-case suite (empty
  anti-join build, all-unmatched outer groupjoin, empty-bitmap
  disjunct);
* the grouping runtime's two internal paths (dense bincount vs sorted
  reduceat) against each other and against int64 wraparound semantics,
  and the bincount's single-pass and hi/lo-split forms as a property;
* block-at-a-time execution: wherever the block boundaries fall — odd
  sizes, a one-row tail, blocks no row of which qualifies, an empty
  table — the answer is the whole-column answer, byte for byte;
* the native axis: all 32 cells x encoding auto/off x serial /
  ``workers=2`` / ``shards=2`` with the native kernel forced through
  ``program.build_now()`` (cells the C emitter declines assert their
  recorded reason), against the NumPy kernel and ``reference_result``;
  int64 wrap, all-false / all-true masks, 0- and 1-row tables, the
  key-mask throwaway row, a key spread straddling the dense bound, and
  three different C sources for the three strategies' Q6;
* the engine-level seams: backend-qualified plan-cache keys, the
  recorded effective backend, and the instrumented fallback when
  vectorization fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import native, npexec
from repro.codegen.lower import lower_plan
from repro.codegen.vectorize import VectorizeError, compile_physical
from repro.datagen import microbench as mb
from repro.datagen import tpch as tpchgen
from repro.datagen.cache import load_dataset
from repro.engine import Engine, ExecutionKnobs, reference
from repro.engine.machine import PAPER_MACHINE
from repro.engine.program import results_equal
from repro.errors import PlanError
from repro.plan import passes as PS
from repro.plan.builder import PlanBuilder, scan
from repro.plan.expressions import And, Col, Const, DictEq
from repro.plan.ops import AggSpec
from repro.storage.column import Column, LogicalType
from repro.storage.database import Database
from repro.storage.table import Table
from repro.tpch import (
    PIPELINE_QUERIES,
    STRATEGIES,
    logical_plan,
    reference_result,
)

from .conftest import (
    assert_value_equals,
    compile_named,
    requires_cc,
    vectorized_program,
)


@pytest.fixture(scope="module")
def tpch_engine(tpch_db):
    # morsel_rows pinned: the vectorized fan-out floor would otherwise
    # run this tiny dataset serially, and the sweep must also cover the
    # morsel-parallel merge path.
    with Engine(
        db=tpch_db, workers=4, knobs=ExecutionKnobs(morsel_rows=1500)
    ) as engine:
        yield engine


@pytest.fixture(scope="module")
def micro_engine(micro_db):
    with Engine(
        db=micro_db, workers=4, knobs=ExecutionKnobs(morsel_rows=4096)
    ) as engine:
        yield engine


class TestTpchSweep:
    """All 32 TPC-H query x strategy cells, serial and parallel."""

    @pytest.mark.parametrize("name", PIPELINE_QUERIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cell_byte_identical(self, tpch_engine, name, strategy):
        plan = logical_plan(name)
        instrumented = tpch_engine.execute(
            plan, strategy, workers=1, backend="instrumented"
        )
        assert_value_equals(
            reference_result(name, tpch_engine.db),
            instrumented.value,
            (name, strategy),
        )
        for workers in (1, 4):
            vectorized = tpch_engine.execute(
                plan, strategy, workers=workers, backend="vectorized"
            )
            assert results_equal(instrumented, vectorized), (
                name,
                strategy,
                workers,
            )


class TestEncodedSweep:
    """Serving code streams must be invisible in the answers: every
    cell, both backends, encoding auto vs off, byte for byte."""

    @pytest.fixture(scope="class")
    def decoded_engine(self, tpch_db):
        with Engine(
            db=tpch_db,
            workers=4,
            encoding="off",
            knobs=ExecutionKnobs(morsel_rows=1500),
        ) as engine:
            yield engine

    @pytest.mark.parametrize("name", PIPELINE_QUERIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cell_byte_identical(
        self, tpch_engine, decoded_engine, name, strategy
    ):
        plan = logical_plan(name)
        expected = reference_result(name, tpch_engine.db)
        for backend in ("instrumented", "vectorized"):
            encoded = tpch_engine.execute(
                plan, strategy, workers=1, backend=backend
            )
            decoded = decoded_engine.execute(
                plan, strategy, workers=1, backend=backend
            )
            assert_value_equals(
                expected, encoded.value, (name, strategy, backend)
            )
            assert results_equal(encoded, decoded), (
                name,
                strategy,
                backend,
            )


class TestMicrobenchQueries:
    """The Fig. 7/8 queries, including floor division and its guard."""

    @pytest.mark.parametrize(
        "query",
        [mb.q1(30, "mul"), mb.q1(30, "div"), mb.q1(90, "mul"), mb.q2(30)],
        ids=["q1-mul-30", "q1-div-30", "q1-mul-90", "q2-30"],
    )
    @pytest.mark.parametrize("strategy", ("datacentric", "hybrid", "swole"))
    def test_byte_identical(self, micro_engine, query, strategy):
        instrumented = micro_engine.execute(
            query, strategy, workers=1, backend="instrumented"
        )
        assert_value_equals(
            reference.evaluate(query, micro_engine.db),
            instrumented.value,
            strategy,
        )
        for workers in (1, 4):
            vectorized = micro_engine.execute(
                query, strategy, workers=workers, backend="vectorized"
            )
            assert results_equal(instrumented, vectorized), (
                strategy,
                workers,
            )


#: A predicate no row satisfies (all stored columns are non-negative).
IMPOSSIBLE = Col("l_commitdate") < Const(-1)


def _edge_case_plans():
    """The degenerate shapes from the pipeline edge-case suite."""
    empty_anti = (
        PlanBuilder.scan("orders")
        .exists_join(
            scan("lineitem").filter(IMPOSSIBLE),
            pk_column="o_orderkey",
            fk_column="l_orderkey",
            anti=True,
        )
        .group_agg(
            AggSpec("count", None, name="order_count"),
            key="o_orderpriority",
        )
        .build("be-q4-empty-build")
    )
    all_unmatched = (
        PlanBuilder.scan("orders")
        .filter(Col("o_orderdate") < Const(-1))
        .outer_group_join(
            "customer",
            fk_column="o_custkey",
            pk_column="c_custkey",
            count_name="c_count",
        )
        .group_agg(AggSpec("count", None, name="custdist"), key="c_count")
        .build("be-q13-all-unmatched")
    )
    disjuncts = (
        (
            And(
                [
                    DictEq("p_brand", "Brand#12"),
                    And([Col("p_size") >= 1, Col("p_size") <= 5]),
                ]
            ),
            And([Col("l_quantity") >= 1, Col("l_quantity") <= 11]),
        ),
        (
            And([Col("p_size") >= 999]),  # matches no part: empty bitmap
            And([Col("l_quantity") >= 0]),
        ),
    )
    empty_disjunct = (
        PlanBuilder.scan("lineitem")
        .disjunct_join(
            "part",
            fk_column="l_partkey",
            pk_column="p_partkey",
            disjuncts=disjuncts,
        )
        .group_agg(
            AggSpec(
                "sum",
                Col("l_extendedprice") * (Const(100) - Col("l_discount")),
                name="revenue",
            )
        )
        .build("be-q19-empty-disjunct")
    )
    return {
        "empty-anti-build": empty_anti,
        "all-unmatched-outer": all_unmatched,
        "empty-disjunct": empty_disjunct,
    }


def _edge_case_answer(shape, db):
    """Each degenerate shape's answer, computed straight from the
    columns (the reference evaluator does not walk these node kinds)."""
    if shape == "empty-anti-build":
        # Nothing to anti-join against: every order counts.
        keys, counts = np.unique(
            db.data("orders")["o_orderpriority"], return_counts=True
        )
        return {
            "keys": keys.astype(np.int64),
            "aggs": counts.astype(np.int64).reshape(-1, 1),
        }
    if shape == "all-unmatched-outer":
        # No order qualifies: every customer lands in the zero bucket.
        return {
            "keys": np.zeros(1, dtype=np.int64),
            "aggs": np.asarray([[db.table("customer").num_rows]]),
        }
    # Only the first disjunct can match.
    line, part = db.data("lineitem"), db.data("part")
    brand = db.table("part").column("p_brand").dictionary.index("Brand#12")
    at = db.fk_index("lineitem", "l_partkey").offsets
    hit = (
        (part["p_brand"][at] == brand)
        & (part["p_size"][at] >= 1)
        & (part["p_size"][at] <= 5)
        & (line["l_quantity"] >= 1)
        & (line["l_quantity"] <= 11)
    )
    revenue = line["l_extendedprice"].astype(np.int64) * (
        100 - line["l_discount"].astype(np.int64)
    )
    return {"revenue": int(np.sum(revenue[hit], dtype=np.int64))}


class TestEdgeCasePlans:
    """Degenerate plan shapes agree across backends under every
    strategy (empty intermediates stress the kernels' zero-row paths)."""

    @pytest.mark.parametrize("shape", sorted(_edge_case_plans()))
    def test_byte_identical(self, tpch_engine, shape):
        plan = _edge_case_plans()[shape]
        expected = _edge_case_answer(shape, tpch_engine.db)
        for strategy in STRATEGIES:
            instrumented = tpch_engine.execute(
                plan, strategy, workers=1, backend="instrumented"
            )
            assert_value_equals(expected, instrumented.value, strategy)
            vectorized = tpch_engine.execute(
                plan, strategy, workers=4, backend="vectorized"
            )
            assert results_equal(instrumented, vectorized), (shape, strategy)


class TestGroupingRuntime:
    """The two grouping paths agree with each other and with int64
    wraparound reference sums."""

    def _reference(self, keys, deltas, mask=None):
        if mask is not None:
            keys = keys[mask]
            deltas = [d[mask] for d in deltas]
        uniq = np.unique(keys)
        aggs = np.stack(
            [
                np.array(
                    [d[keys == k].sum(dtype=np.int64) for k in uniq],
                    dtype=np.int64,
                )
                for d in deltas
            ],
            axis=1,
        ) if deltas else np.zeros((uniq.size, 1), dtype=np.int64)
        return {"keys": uniq, "aggs": aggs}

    def _check(self, keys, deltas, mask=None):
        got = npexec.group_sorted(keys, deltas, mask)
        want = self._reference(keys, deltas, mask)
        assert np.array_equal(got["keys"], want["keys"])
        assert got["aggs"].dtype == np.int64
        assert np.array_equal(got["aggs"], want["aggs"])

    def test_dense_keys_take_bincount_path(self, rng):
        keys = rng.integers(0, 100, size=10_000, dtype=np.int64)
        assert npexec._dense_codes(keys) is not None
        deltas = [rng.integers(-1000, 1000, size=keys.size, dtype=np.int64)]
        self._check(keys, deltas)

    def test_sparse_keys_take_sort_path(self, rng):
        keys = rng.integers(0, 2**40, size=1000, dtype=np.int64)
        assert npexec._dense_codes(keys) is None
        deltas = [rng.integers(-1000, 1000, size=keys.size, dtype=np.int64)]
        self._check(keys, deltas)

    @pytest.mark.parametrize("spread", (100, 2**40))
    def test_mask_folds_into_both_paths(self, rng, spread):
        keys = rng.integers(0, spread, size=5000, dtype=np.int64)
        deltas = [
            rng.integers(-(2**40), 2**40, size=keys.size, dtype=np.int64),
            rng.integers(0, 2, size=keys.size, dtype=np.int64),
        ]
        mask = rng.integers(0, 2, size=keys.size, dtype=bool)
        self._check(keys, deltas, mask)

    def test_all_false_mask_yields_empty_groups(self):
        keys = np.arange(100, dtype=np.int64)
        deltas = [np.ones(100, dtype=np.int64)]
        got = npexec.group_sorted(keys, deltas, np.zeros(100, dtype=bool))
        assert got["keys"].size == 0
        assert got["aggs"].shape == (0, 1)

    def test_bincount_path_wraps_like_int64(self):
        # Two deltas whose int64 sum overflows: the hi/lo-split bincount
        # must wrap mod 2^64 exactly as repeated int64 addition does.
        keys = np.zeros(4, dtype=np.int64)
        big = np.int64(2**62)
        deltas = [np.array([big, big, big, big], dtype=np.int64)]
        with np.errstate(over="ignore"):
            expected = np.int64(0)
            for d in deltas[0]:
                expected = expected + d
        got = npexec.group_sorted(keys, deltas)
        assert got["aggs"][0, 0] == expected

    @pytest.mark.parametrize("spread", (64, 2**40))
    def test_count_by_matches_unique(self, rng, spread):
        keys = rng.integers(0, spread, size=4000, dtype=np.int64)
        got_keys, got_counts = npexec.count_by(keys)
        uniq, counts = np.unique(keys, return_counts=True)
        assert np.array_equal(got_keys, uniq)
        assert got_counts.dtype == np.int64
        assert np.array_equal(got_counts, counts)


@st.composite
def _bincount_cases(draw):
    """Codes and int64 deltas whose magnitude straddles the single-pass
    bound ``2**53 / rows``, with both signs."""
    rows = draw(st.integers(min_value=1, max_value=300))
    length = draw(st.integers(min_value=1, max_value=8))
    edge = 2**53 // rows
    magnitude = draw(
        st.sampled_from(
            [1000, edge - 1, edge, edge + 1, 4 * edge, 2**62, 2**63 - 1]
        )
    )
    values = st.integers(min_value=-magnitude, max_value=magnitude)
    delta = draw(st.lists(values, min_size=rows, max_size=rows))
    codes = draw(
        st.lists(
            st.integers(min_value=0, max_value=length - 1),
            min_size=rows,
            max_size=rows,
        )
    )
    return (
        np.asarray(codes, dtype=np.intp),
        np.asarray(delta, dtype=np.int64),
        length,
    )


class TestBincountExactness:
    """``_bincount_i64`` picks a single float64 pass when no partial
    sum can leave float64's exact range and the hi/lo split otherwise;
    both must be the wrapping int64 scatter-add."""

    @given(case=_bincount_cases())
    @settings(max_examples=200, deadline=None)
    def test_both_forms_match_int64_scatter_add(self, case):
        codes, delta, length = case
        want = np.zeros(length, dtype=np.int64)
        np.add.at(want, codes, delta)
        got = npexec._bincount_i64(codes, delta, length)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        # One out-of-range delta in a bucket of its own forces the
        # hi/lo split over the very same rows.
        split = npexec._bincount_i64(
            np.append(codes, length),
            np.append(delta, np.int64(2**62)),
            length + 1,
        )
        assert np.array_equal(split[:length], want)

    def test_split_stays_exact_past_one_pass_of_rows(self, monkeypatch):
        # More rows than one hi/lo pass may sum exactly: the split runs
        # pass by pass and still equals the int64 scatter-add.
        monkeypatch.setattr(npexec, "_BINCOUNT_MAX_ROWS", 64)
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 4, size=1000).astype(np.intp)
        delta = rng.integers(-(2**62), 2**62, size=1000, dtype=np.int64)
        want = np.zeros(4, dtype=np.int64)
        np.add.at(want, codes, delta)
        assert np.array_equal(npexec._bincount_i64(codes, delta, 4), want)


def _pin_block_rows(monkeypatch, engine, plan, strategy, rows):
    """Recompile ``plan`` on ``engine`` so a splittable final kernel
    runs ``rows`` rows per block (``rows`` may be a function of the scan
    length). Returns the block size in force, ``None`` for a plan whose
    final pipeline does not split — the one-block case."""
    engine.invalidate()
    compiled = engine.compile(plan, strategy, backend="vectorized")
    if compiled.notes["block_rows"] is None:
        return None
    if callable(rows):
        rows = rows(compiled.parallel.n_rows)
    row_bytes = npexec.BLOCK_BYTES // compiled.notes["block_rows"]
    monkeypatch.setattr(npexec, "BLOCK_BYTES", rows * row_bytes)
    engine.invalidate()
    pinned = engine.compile(plan, strategy, backend="vectorized")
    assert pinned.notes["block_rows"] == rows
    return rows


def _skewed_db(rows):
    """One table whose qualifying rows (``a < 50``) all sit in the
    first 100 rows, so every later block's mask is all-false."""
    rng = np.random.default_rng(11)
    a = np.full(rows, 99, dtype=np.int32)
    a[:100] = rng.integers(0, 100, size=min(rows, 100))[:rows]
    db = Database()
    db.add_table(
        Table(
            name="T",
            columns=(
                Column("a", LogicalType.INT32, a),
                Column("g", LogicalType.INT32, rng.integers(0, 5, rows)),
                Column("x", LogicalType.INT64, rng.integers(0, 1000, rows)),
            ),
        )
    )
    return db


def _skewed_plans():
    qualifying = PlanBuilder.scan("T").filter(Col("a") < Const(50))
    return {
        "scalar": qualifying.group_agg(
            AggSpec("sum", Col("x") * Col("a"), name="s"),
            AggSpec("count", None, name="c"),
        ).build("be-block-scalar"),
        "grouped": qualifying.group_agg(
            AggSpec("sum", Col("x"), name="s"),
            AggSpec("count", None, name="c"),
            key="g",
        ).build("be-block-grouped"),
    }


class TestBlockBoundaries:
    """The block driver gives the whole-column bytes wherever the
    boundaries fall, on the serial path and under morsels alike."""

    @pytest.fixture(scope="class")
    def engines(self, tpch_db):
        knobs = ExecutionKnobs(morsel_rows=1500)
        with Engine(db=tpch_db, workers=4, knobs=knobs) as auto:
            with Engine(
                db=tpch_db, workers=4, knobs=knobs, encoding="off"
            ) as off:
                yield {"auto": auto, "off": off}

    @pytest.mark.parametrize(
        "rows",
        (1000, 4097, lambda n: n - 1),
        ids=("1000", "4097", "one-row-tail"),
    )
    @pytest.mark.parametrize("name", PIPELINE_QUERIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cell_gives_whole_column_bytes(
        self, monkeypatch, engines, tpch_engine, name, strategy, rows
    ):
        plan = logical_plan(name)
        whole = tpch_engine.execute(
            plan, strategy, workers=1, backend="instrumented"
        )
        assert_value_equals(
            reference_result(name, tpch_engine.db), whole.value, strategy
        )
        for encoding, engine in engines.items():
            _pin_block_rows(monkeypatch, engine, plan, strategy, rows)
            for workers in (1, 4):
                blocked = engine.execute(
                    plan, strategy, workers=workers, backend="vectorized"
                )
                assert results_equal(whole, blocked), (
                    name,
                    strategy,
                    encoding,
                    workers,
                )
            monkeypatch.undo()

    @pytest.mark.parametrize("shape", ("scalar", "grouped"))
    @pytest.mark.parametrize("table_rows", (0, 1, 5000))
    def test_all_false_blocks_and_empty_table(
        self, monkeypatch, shape, table_rows
    ):
        plan = _skewed_plans()[shape]
        db = _skewed_db(table_rows)
        expected = reference.evaluate(plan, db)
        with Engine(db=db) as engine:
            for strategy in ("datacentric", "hybrid", "swole"):
                whole = engine.execute(
                    plan, strategy, backend="instrumented"
                )
                assert_value_equals(expected, whole.value, strategy)
                assert _pin_block_rows(
                    monkeypatch, engine, plan, strategy, 256
                ) == 256
                blocked = engine.execute(
                    plan, strategy, backend="vectorized"
                )
                assert results_equal(whole, blocked), (strategy, table_rows)
                monkeypatch.undo()

    def test_no_block_qualifies(self, monkeypatch, tpch_engine):
        plan = (
            PlanBuilder.scan("lineitem")
            .filter(IMPOSSIBLE)
            .group_agg(
                AggSpec("sum", Col("l_quantity"), name="qty"),
                key="l_returnflag",
            )
            .build("be-block-none-qualify")
        )
        with Engine(db=tpch_engine.db) as engine:
            for strategy in ("hybrid", "swole"):
                _pin_block_rows(monkeypatch, engine, plan, strategy, 1000)
                blocked = engine.execute(plan, strategy, backend="vectorized")
                assert blocked.value["keys"].size == 0
                assert blocked.value["aggs"].shape == (0, 1)
                monkeypatch.undo()

    def test_overflowing_scalar_sum_wraps_like_one_int64_sum(
        self, monkeypatch
    ):
        db = Database()
        db.add_table(
            Table(
                name="T",
                columns=(
                    Column(
                        "x",
                        LogicalType.INT64,
                        np.full(8, 2**61, dtype=np.int64),
                    ),
                ),
            )
        )
        plan = (
            PlanBuilder.scan("T")
            .group_agg(AggSpec("sum", Col("x") * Const(1), name="s"))
            .build("be-block-wrap")
        )
        with Engine(db=db) as engine:
            whole = engine.execute(plan, "swole", backend="instrumented")
            _pin_block_rows(monkeypatch, engine, plan, "swole", 3)
            blocked = engine.execute(plan, "swole", backend="vectorized")
            assert results_equal(whole, blocked)
            assert blocked.value["s"] == 0  # 8 * 2**61 wraps to zero


def _native_decline(name, strategy):
    """The reason the C emitter records for a TPC-H cell whose final
    pipeline it does not cover (``None``: the cell goes native)."""
    if name == "Q3":
        return "op GroupJoinAgg"
    if name == "Q13":
        return "op GroupDistribution"
    if name == "Q19":
        return (
            "op DisjunctBitmapProbe"
            if strategy == "swole"
            else "op DisjunctIndexProbe"
        )
    if strategy != "swole":
        return {"Q4": "op HashSemiProbe", "Q5": "op HashJoinCarryProbe"}.get(
            name
        )
    return None


@requires_cc
class TestNativeSweep:
    """Every cell on its native kernel (or declined with the reason
    the emitter records): encoding auto/off x serial / morsel threads /
    shard processes, against the NumPy kernel and the reference."""

    @pytest.fixture(scope="class")
    def cached_db(self):
        # Through the dataset cache: shard workers map it by
        # fingerprint, and the kernels build under its directory.
        return load_dataset("tpch", tpchgen.TpchConfig(scale_factor=0.002))

    @pytest.fixture(scope="class")
    def engines(self, cached_db):
        knobs = ExecutionKnobs(morsel_rows=1500)
        with Engine(db=cached_db, workers=2, knobs=knobs) as auto:
            with Engine(
                db=cached_db, workers=2, knobs=knobs, encoding="off"
            ) as off:
                yield {"auto": auto, "off": off}

    @pytest.mark.parametrize("name", PIPELINE_QUERIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cell_byte_identical(self, cached_db, engines, name, strategy):
        plan = logical_plan(name)
        expected = reference_result(name, cached_db)
        declined = _native_decline(name, strategy)
        for encoding, engine in engines.items():
            on_numpy = engine.execute(plan, strategy, workers=1)
            program = engine.compile(plan, strategy).program
            assert program.tier == "numpy"  # the builder is parked
            tier = program.build_now()
            if declined is None:
                assert tier == "native", (name, strategy, encoding)
                assert "int64_t kernel(" in engine.compile(
                    plan, strategy
                ).notes["native_source"]
            else:
                assert tier == f"declined: {declined}"
                assert program.native is None
            for mode in ({"workers": 1}, {"workers": 2}, {"shards": 2}):
                cell = (name, strategy, encoding, mode)
                result = engine.execute(plan, strategy, **mode)
                assert results_equal(on_numpy, result), cell
                assert_value_equals(expected, result.value, cell)
                # Compiled scans long enough to fan out.
                if name in ("Q1", "Q6") and strategy != "interpreter":
                    assert result.metrics.parallel == (mode != {"workers": 1})
                    assert result.metrics.sharded == ("shards" in mode)
            if program.native is not None:
                assert program.native.fallbacks == {}

    def test_three_strategies_three_instruction_streams(self, engines):
        plan = logical_plan("Q6")
        sources = set()
        for strategy in ("datacentric", "hybrid", "swole"):
            compiled = engines["auto"].compile(plan, strategy)
            assert compiled.program.build_now() == "native"
            sources.add(compiled.notes["native_source"])
        assert len(sources) == 3
        branching, = [s for s in sources if "if (" in s and " m " not in s]
        masked, = [s for s in sources if "-m & " in s]
        assert branching.count("if (") == 3  # one branch per conjunct
        assert "if (" not in masked  # a predicated add, no branch at all


def _one_table(**columns):
    db = Database()
    db.add_table(
        Table(
            name="T",
            columns=tuple(
                Column(
                    name,
                    {
                        np.dtype(np.int8): LogicalType.INT8,
                        np.dtype(np.int32): LogicalType.INT32,
                        np.dtype(np.int64): LogicalType.INT64,
                    }[values.dtype],
                    values,
                )
                for name, values in columns.items()
            ),
        )
    )
    return db


@requires_cc
class TestNativeEdges:
    """The places a C loop could part ways with NumPy."""

    AGG_MODES = (PS.CONDITIONAL, PS.GATHERED, PS.VALUE_MASK)

    def _both_kernels(self, program):
        on_numpy = program.execute()
        assert program.build_now() == "native"
        on_native = program.execute()
        assert program.native.fallbacks == {}
        return on_numpy, on_native

    def _assert_same(self, on_numpy, on_native):
        assert set(on_numpy) == set(on_native)
        for key, lhs in on_numpy.items():
            rhs = on_native[key]
            assert type(lhs) is type(rhs), key
            if isinstance(lhs, np.ndarray):
                assert lhs.dtype == rhs.dtype and lhs.shape == rhs.shape
                assert np.array_equal(lhs, rhs), key
            else:
                assert lhs == rhs, key

    @pytest.mark.parametrize("mode", AGG_MODES)
    def test_int64_wrap_across_the_whole_scan(self, mode):
        db = _one_table(
            x=np.full(8, 2**61, dtype=np.int64),
            g=np.zeros(8, dtype=np.int32),
            a=np.zeros(8, dtype=np.int32),
        )
        qualifying = PlanBuilder.scan("T").filter(Col("a") < Const(1))
        scalar = qualifying.group_agg(
            AggSpec("sum", Col("x") * Const(3), name="s")
        ).build("be-native-wrap")
        grouped = qualifying.group_agg(
            AggSpec("sum", Col("x") * Const(3), name="s"), key="g"
        ).build("be-native-wrap-grouped")
        on_numpy, on_native = self._both_kernels(
            vectorized_program(scalar, db, "swole", agg_mode=mode)
        )
        self._assert_same(on_numpy, on_native)
        # 8 * 3 * 2**61 = 3 * 2**64: wraps to zero, as one int64 sum.
        assert on_native == {"s": 0}
        on_numpy, on_native = self._both_kernels(
            vectorized_program(grouped, db, "swole", agg_mode=mode)
        )
        self._assert_same(on_numpy, on_native)
        assert on_native["aggs"].tolist() == [[0]]

    @pytest.mark.parametrize("cutoff", (-1, 1000), ids=("none", "all"))
    @pytest.mark.parametrize("rows", (0, 1, 5000))
    @pytest.mark.parametrize("shape", ("scalar", "grouped"))
    def test_masks_and_tiny_tables(self, shape, rows, cutoff):
        rng = np.random.default_rng(rows + 3)
        db = _one_table(
            a=rng.integers(0, 100, rows).astype(np.int32),
            g=rng.integers(-3, 4, rows).astype(np.int8),
            x=rng.integers(-(2**40), 2**40, rows, dtype=np.int64),
        )
        aggregates = (
            AggSpec("sum", Col("x") * Col("a"), name="s"),
            AggSpec("count", None, name="c"),
        )
        builder = PlanBuilder.scan("T").filter(Col("a") < Const(cutoff))
        plan = (
            builder.group_agg(*aggregates)
            if shape == "scalar"
            else builder.group_agg(*aggregates, key="g")
        ).build(f"be-native-{shape}")
        modes = self.AGG_MODES + (
            (PS.KEY_MASK,) if shape == "grouped" else ()
        )
        for strategy in ("datacentric", "swole"):
            for mode in modes:
                on_numpy, on_native = self._both_kernels(
                    vectorized_program(plan, db, strategy, agg_mode=mode)
                )
                self._assert_same(on_numpy, on_native)

    def test_key_mask_throwaway_row_never_reaches_the_output(self):
        # Group 7 has rows but none selected; a key-masked kernel sends
        # them to the throwaway row (index spread + 1 = 8 here), which
        # must be neither a result group nor leak into group 7.
        a = np.array([1, 1, 9, 9, 1, 9], dtype=np.int32)
        g = np.array([0, 3, 7, 7, 3, 0], dtype=np.int32)
        x = np.array([10, 20, 40, 80, 160, 320], dtype=np.int64)
        plan = (
            PlanBuilder.scan("T")
            .filter(Col("a") < Const(5))
            .group_agg(
                AggSpec("sum", Col("x"), name="s"),
                AggSpec("count", None, name="c"),
                key="g",
            )
            .build("be-native-keymask")
        )
        program = vectorized_program(
            plan, _one_table(a=a, g=g, x=x), "swole", agg_mode=PS.KEY_MASK
        )
        on_numpy, on_native = self._both_kernels(program)
        assert "m ? " in program.notes["native_source"]
        self._assert_same(on_numpy, on_native)
        assert on_native["keys"].tolist() == [0, 3]
        assert on_native["aggs"].tolist() == [[10, 1], [180, 2]]

    def test_key_spread_straddling_the_dense_bound(self):
        # The first half's keys are dense; one far key in the second
        # half pushes that morsel's spread past the bound, so it alone
        # takes the NumPy kernel — mid-scan, same answer.
        rows = 40_000
        rng = np.random.default_rng(5)
        g = rng.integers(0, 50, rows).astype(np.int64)
        g[rows - 1] = 2**40
        db = _one_table(
            a=rng.integers(0, 100, rows).astype(np.int32),
            g=g,
            x=rng.integers(0, 1000, rows, dtype=np.int64),
        )
        plan = (
            PlanBuilder.scan("T")
            .filter(Col("a") < Const(50))
            .group_agg(AggSpec("sum", Col("x"), name="s"), key="g")
            .build("be-native-spread")
        )
        with Engine(
            db=db, workers=2, knobs=ExecutionKnobs(morsel_rows=rows // 2)
        ) as engine:
            for strategy in ("datacentric", "hybrid", "swole"):
                want = engine.execute(plan, strategy, backend="instrumented")
                assert_value_equals(
                    reference.evaluate(plan, db), want.value, strategy
                )
                program = engine.compile(plan, strategy).program
                assert program.build_now() == "native"
                for workers in (1, 2):
                    before = dict(program.native.fallbacks)
                    got = engine.execute(plan, strategy, workers=workers)
                    assert results_equal(want, got), (strategy, workers)
                    declined = (
                        program.native.fallbacks.get("spread", 0)
                        - before.get("spread", 0)
                    )
                    # Serial: the whole scan is one sparse call. Two
                    # morsels: the dense half stays native.
                    assert declined == 1, (strategy, workers)


class TestEngineSeams:
    """Backend selection is visible and isolated at the engine layer."""

    def test_instrumented_programs_stay_serial_and_off_the_native_tier(
        self, tpch_db, monkeypatch
    ):
        # Every NumPy kernel second counts as a build's worth: a serving
        # program is handed to the builder on its first run, a counting
        # one never is.
        builder = native.builder()
        monkeypatch.setattr(
            type(builder), "estimate", property(lambda self: 0.0)
        )
        submitted = []
        monkeypatch.setattr(
            builder,
            "submit",
            lambda program, state: submitted.append(program.label) or False,
        )
        plan = logical_plan("Q6")
        with Engine(db=tpch_db, workers=2) as engine:
            compiled = engine.compile(plan, "swole", backend="instrumented")
            assert compiled.parallel is None and compiled.program is None
            engine.execute(plan, "swole", backend="instrumented")
            assert submitted == []
            engine.execute(plan, "swole", backend="vectorized")
            assert submitted == ["Q6[swole]"]

    def test_plan_cache_keys_are_backend_qualified(self, tpch_db):
        with Engine(db=tpch_db) as engine:
            plan = logical_plan("Q6")
            engine.execute(plan, "swole", backend="vectorized")
            misses = engine.cache_stats.misses
            # Same query on the other backend must compile again, not
            # serve the vectorized program from the cache.
            engine.execute(plan, "swole", backend="instrumented")
            assert engine.cache_stats.misses == misses + 1
            engine.execute(plan, "swole", backend="instrumented")
            assert engine.cache_stats.misses == misses + 1  # now cached

    def test_explain_names_the_backend(self, tpch_db):
        with Engine(db=tpch_db) as engine:
            assert "vectorized" in engine.explain(
                logical_plan("Q1"), "swole", backend="vectorized"
            )
            assert "instrumented" in engine.explain(
                logical_plan("Q1"), "swole", backend="instrumented"
            )

    def test_every_physical_op_has_a_vectorize_handler(self):
        # Nothing for a fallback to catch: the emitter lowers every op
        # class lowering can produce.
        import repro.plan.physical as physical_mod
        from repro.codegen.vectorize import _HANDLERS

        ops = {
            cls
            for cls in vars(physical_mod).values()
            if isinstance(cls, type)
            and issubclass(cls, physical_mod.PhysicalOp)
            and cls is not physical_mod.PhysicalOp
        }
        assert ops and ops == set(_HANDLERS)

    def test_vectorize_failure_is_a_plan_error(self, tpch_db, monkeypatch):
        # A raising emitter is a broken planner invariant: it surfaces
        # at the engine as the PlanError it subclasses, never as a
        # silent switch to the instrumented backend.
        from repro.codegen.vectorize import _HANDLERS
        from repro.plan.physical import FilterStage

        def boom(*_args, **_kwargs):
            raise VectorizeError("synthetic: op not vectorizable")

        monkeypatch.setitem(_HANDLERS, FilterStage, boom)
        with Engine(db=tpch_db) as engine:
            with pytest.raises(PlanError, match="synthetic"):
                engine.compile(logical_plan("Q6"), "swole")

    def test_notes_carry_the_kernel_source_and_block_rows(self, tpch_db):
        vectorized = compile_named(
            "Q6", "swole", tpch_db, backend="vectorized"
        )
        assert vectorized.notes["vectorized_source"] == vectorized.source
        assert "def _kernel_0(v, state, lo):" in vectorized.source
        assert vectorized.notes["block_rows"] > 0
        # Q14's IndexGather final pipeline does not split: one block.
        unsplit = compile_named(
            "Q14", "swole", tpch_db, backend="vectorized"
        )
        assert unsplit.notes["block_rows"] is None
        instrumented = compile_named("Q6", "swole", tpch_db)
        assert "vectorized_source" not in instrumented.notes
        assert "block_rows" not in instrumented.notes

    def test_kernels_are_bound_only_the_columns_they_read(self, tpch_db):
        from repro.codegen.lower import lower_plan
        from repro.codegen.vectorize import compile_physical
        from repro.engine.machine import PAPER_MACHINE
        from repro.plan.passes import run_passes

        bound, decisions, _ = run_passes(
            logical_plan("Q6"), tpch_db, PAPER_MACHINE, "swole"
        )
        program = compile_physical(
            lower_plan(bound, decisions, tpch_db, "swole"), tpch_db
        )
        assert set(program.data[-1]) == {
            "l_shipdate", "l_discount", "l_quantity", "l_extendedprice",
        }

    def test_unknown_backend_rejected(self, tpch_db):
        with Engine(db=tpch_db) as engine:
            with pytest.raises(Exception, match="backend"):
                engine.execute(logical_plan("Q6"), "swole", backend="simd")
