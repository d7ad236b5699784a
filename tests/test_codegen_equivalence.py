"""Cross-strategy answer equivalence: the repository's spine invariant.

Every code-generation strategy — interpreter, data-centric, hybrid,
SWOLE (with whatever techniques its planner picked) — on both execution
backends must return exactly the reference interpreter's answer on every
query shape, across selectivities and on adversarial
hypothesis-generated data. The queries are legacy microbench ``Query``
objects, so every cell also crosses the engine's front-door lift.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, available_strategies
from repro.codegen.native import find_compiler
from repro.datagen import microbench as mb
from repro.engine import reference
from repro.engine.facade import BACKENDS
from repro.engine.program import results_equal
from repro.obs import MetricsRegistry
from repro.plan.expressions import Col, Const
from repro.plan.logical import AggSpec, Query
from repro.storage.column import Column, LogicalType
from repro.storage.database import Database
from repro.storage.table import Table

from .conftest import assert_value_equals

STRATEGIES = ("interpreter", "datacentric", "hybrid", "swole")


def _assert_matches_reference(query, db, native_too=False):
    """``native_too`` runs each vectorized cell a second time on its
    native C kernel (cells the emitter declines stay on NumPy)."""
    expected = reference.evaluate(query, db)
    for backend in BACKENDS:
        engine = Engine(db, backend=backend, registry=MetricsRegistry())
        for strategy in STRATEGIES:
            cell = (backend, strategy)
            assert_value_equals(
                expected, engine.execute(query, strategy).value, cell
            )
            if native_too and backend == "vectorized":
                program = engine.compile(query, strategy).program
                tier = program.build_now()
                assert tier == "native" or tier.startswith("declined: "), (
                    cell, tier,
                )
                assert_value_equals(
                    expected,
                    engine.execute(query, strategy).value,
                    (cell, tier),
                )


class TestRegistry:
    def test_all_strategies_registered(self):
        assert sorted(STRATEGIES) == available_strategies()


@pytest.mark.parametrize("sel", [0, 5, 50, 95, 100])
@pytest.mark.parametrize("op", ["mul", "div"])
def test_q1_all_selectivities(micro_db, sel, op):
    _assert_matches_reference(mb.q1(sel, op), micro_db)


@pytest.mark.parametrize("sel", [0, 10, 60, 100])
def test_q2_group_by(micro_db, sel):
    _assert_matches_reference(mb.q2(sel), micro_db)


@pytest.mark.parametrize("col", ["r_b", "r_x"])
def test_q3_access_merging(micro_db, col):
    _assert_matches_reference(mb.q3(40, col), micro_db)


@pytest.mark.parametrize("sel1,sel2", [(0, 50), (10, 90), (90, 10), (100, 100)])
def test_q4_semijoin(micro_db, sel1, sel2):
    _assert_matches_reference(mb.q4(sel1, sel2), micro_db)


@pytest.mark.parametrize("sel", [0, 30, 100])
def test_q5_groupjoin(micro_db, sel):
    _assert_matches_reference(mb.q5(sel), micro_db)


def test_count_aggregate(micro_db):
    query = Query(
        table="R",
        predicate=Col("r_x") < Const(20),
        aggregates=(
            AggSpec("sum", Col("r_a"), name="total"),
            AggSpec("count", name="n"),
        ),
        name="count-query",
    )
    _assert_matches_reference(query, micro_db)


def test_grouped_count(micro_db):
    query = Query(
        table="R",
        predicate=Col("r_x") < Const(70),
        aggregates=(AggSpec("count", name="n"),),
        group_by="r_c",
        name="grouped-count",
    )
    _assert_matches_reference(query, micro_db)


def test_results_equal_helper(micro_db):
    query = mb.q1(30)
    engine = Engine(micro_db, backend="instrumented")
    a = engine.execute(query, "hybrid")
    b = engine.execute(query, "swole")
    assert results_equal(a, b)


@st.composite
def tiny_database(draw):
    """A small random R/S pair with valid foreign keys."""
    n = draw(st.integers(min_value=1, max_value=120))
    s_n = draw(st.integers(min_value=1, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    r = Table(
        name="R",
        columns=(
            Column("r_a", LogicalType.INT8, rng.integers(1, 101, n)),
            Column("r_b", LogicalType.INT8, rng.integers(1, 101, n)),
            Column("r_x", LogicalType.INT8, rng.integers(0, 100, n)),
            Column("r_y", LogicalType.INT8, np.ones(n, dtype=np.int8)),
            Column("r_c", LogicalType.INT32, rng.integers(0, 8, n)),
            Column("r_fk", LogicalType.INT32, rng.integers(0, s_n, n)),
        ),
    )
    s = Table(
        name="S",
        columns=(
            Column("s_pk", LogicalType.INT32, np.arange(s_n, dtype=np.int32)),
            Column("s_x", LogicalType.INT8, rng.integers(0, 100, s_n)),
        ),
    )
    db = Database()
    db.add_table(r)
    db.add_table(s)
    db.add_foreign_key("R", "r_fk", "S", "s_pk")
    return db


@given(db=tiny_database(), sel=st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_scalar_aggregation_equivalence_property(db, sel):
    _assert_matches_reference(mb.q1(sel), db)


@given(db=tiny_database(), sel=st.integers(min_value=0, max_value=100))
@settings(max_examples=20, deadline=None)
def test_group_by_equivalence_property(db, sel):
    _assert_matches_reference(mb.q2(sel), db)


@given(
    db=tiny_database(),
    sel1=st.integers(min_value=0, max_value=100),
    sel2=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=20, deadline=None)
def test_semijoin_equivalence_property(db, sel1, sel2):
    _assert_matches_reference(mb.q4(sel1, sel2), db)


@given(db=tiny_database(), sel=st.integers(min_value=0, max_value=100))
@settings(max_examples=20, deadline=None)
def test_groupjoin_equivalence_property(db, sel):
    _assert_matches_reference(mb.q5(sel), db)


micro_queries = st.one_of(
    st.builds(
        mb.q1, st.integers(0, 100), st.sampled_from(("mul", "div"))
    ),
    st.builds(mb.q2, st.integers(0, 100)),
    st.builds(
        mb.q3, st.integers(0, 100), st.sampled_from(("r_b", "r_x"))
    ),
    st.builds(mb.q4, st.integers(0, 100), st.integers(0, 100)),
    st.builds(mb.q5, st.integers(0, 100)),
)


@given(query=micro_queries)
@settings(max_examples=30, deadline=None)
def test_any_micro_query_arguments_match_reference(micro_db, query):
    """Random µQ1-µQ5 constructor arguments: 4 strategies x 2 backends
    — and the native kernel wherever there is a compiler and the
    emitter covers the cell — all equal ``reference.evaluate``."""
    _assert_matches_reference(
        query, micro_db, native_too=find_compiler() is not None
    )
