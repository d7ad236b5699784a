"""Tests for the hand-coded TPC-H query programs.

The central invariant: for each of the paper's eight queries, every
strategy (interpreter, data-centric, hybrid, SWOLE) produces exactly the
reference answer. Per-query tests then assert strategy-specific access
contracts (Q4's bitmap replaces the hash table, Q1's key masking never
gathers, ...).
"""

import numpy as np
import pytest

from repro.engine import Session
from repro.engine.events import CondRead, RandomAccess
from repro.engine.machine import PAPER_MACHINE
from repro.errors import CodegenError, PlanError
from repro.tpch import STRATEGIES, query_names, reference_result

from .conftest import compile_named

ALL_QUERIES = ("Q1", "Q3", "Q4", "Q5", "Q6", "Q13", "Q14", "Q19")


def _check(name, strategy, db):
    expected = reference_result(name, db)
    result = compile_named(name, strategy, db).run(Session())
    assert set(result.value) == set(expected)
    for key in expected:
        lhs, rhs = expected[key], result.value[key]
        if isinstance(lhs, np.ndarray):
            assert np.array_equal(lhs, np.asarray(rhs)), (name, strategy, key)
        else:
            assert lhs == rhs, (name, strategy, key)
    return result


class TestRegistry:
    def test_all_eight_queries_registered(self):
        assert tuple(query_names()) == ALL_QUERIES

    def test_unknown_query_rejected(self, tpch_db):
        with pytest.raises(CodegenError):
            compile_named("Q99", "hybrid", tpch_db)

    def test_unknown_strategy_rejected(self, tpch_db):
        with pytest.raises(PlanError):
            compile_named("Q1", "volcano2000", tpch_db)


@pytest.mark.parametrize("name", ALL_QUERIES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_answer_matches_reference(tpch_db, name, strategy):
    _check(name, strategy, tpch_db)


@pytest.mark.parametrize("name", ALL_QUERIES)
def test_source_emitted(tpch_db, name):
    for strategy in STRATEGIES:
        compiled = compile_named(name, strategy, tpch_db)
        assert name in compiled.source or "Q" in compiled.source
        assert len(compiled.source) > 40


@pytest.mark.parametrize("name", ALL_QUERIES)
def test_interpreter_is_slowest(tpch_db, name):
    """The sanity baseline must never beat compiled strategies."""
    session = Session(machine=PAPER_MACHINE.scaled(1000))
    costs = {
        s: compile_named(name, s, tpch_db).run(session).cycles
        for s in STRATEGIES
    }
    assert costs["interpreter"] == max(costs.values())


class TestQ1:
    def test_six_groups(self, tpch_db):
        result = _check("Q1", "swole", tpch_db)
        assert result.value["keys"].shape[0] == 6

    def test_swole_never_gathers(self, tpch_db):
        result = compile_named("Q1", "swole", tpch_db).run(Session())
        conds = [
            e for _, e, _ in result.report.events if isinstance(e, CondRead)
        ]
        assert not conds

    def test_counts_sum_to_selected_rows(self, tpch_db):
        result = _check("Q1", "hybrid", tpch_db)
        counts = result.value["aggs"][:, 5]
        shipdate = tpch_db.table("lineitem")["l_shipdate"]
        assert int(counts.sum()) == int((shipdate <= 10471).sum())


class TestQ4:
    def test_swole_semijoin_has_no_big_hash_table(self, tpch_db):
        """The semijoin structure is a bitmap; the only hash accesses
        left belong to the five-entry priority count table."""
        result = compile_named("Q4", "swole", tpch_db).run(Session())
        ht_events = [
            e
            for _, e, _ in result.report.events
            if isinstance(e, RandomAccess) and e.kind.startswith("ht_")
        ]
        assert all(e.struct_bytes < 10_000 for e in ht_events)
        hybrid = compile_named("Q4", "hybrid", tpch_db).run(Session())
        big = [
            e
            for _, e, _ in hybrid.report.events
            if isinstance(e, RandomAccess) and e.struct_bytes >= 10_000
        ]
        assert big, "hybrid's semijoin hash table should be large"

    def test_hash_and_bitmap_agree(self, tpch_db):
        session = Session()
        a = compile_named("Q4", "hybrid", tpch_db).run(session)
        b = compile_named("Q4", "swole", tpch_db).run(session)
        assert np.array_equal(a.value["keys"], b.value["keys"])
        assert np.array_equal(a.value["aggs"], b.value["aggs"])


class TestQ6:
    def test_revenue_positive(self, tpch_db):
        result = _check("Q6", "swole", tpch_db)
        assert result.value["revenue"] > 0

    def test_swole_reads_discount_once(self, tpch_db):
        from repro.engine.events import SeqRead

        result = compile_named("Q6", "swole", tpch_db).run(Session())
        reads = [
            e
            for _, e, _ in result.report.events
            if isinstance(e, SeqRead) and e.array == "l_discount"
        ]
        assert len(reads) == 1  # access merging


class TestQ13:
    def test_distribution_covers_all_customers(self, tpch_db):
        result = _check("Q13", "swole", tpch_db)
        total_customers = int(result.value["aggs"][:, 0].sum())
        assert total_customers == tpch_db.table("customer").num_rows

    def test_strcmp_dominates_all_strategies(self, tpch_db):
        """Paper: Q13's LIKE wall limits every strategy equally."""
        session = Session(machine=PAPER_MACHINE.scaled(1000))
        costs = [
            compile_named("Q13", s, tpch_db).run(session).cycles
            for s in ("datacentric", "hybrid", "swole")
        ]
        assert max(costs) / min(costs) < 1.3


class TestQ14:
    def test_promo_subset_of_total(self, tpch_db):
        result = _check("Q14", "hybrid", tpch_db)
        assert 0 < result.value["promo_revenue"] < result.value["total_revenue"]

    def test_swole_equals_hybrid(self, tpch_db):
        """Paper: SWOLE cannot improve Q14 and falls back to hybrid."""
        session = Session()
        hybrid = compile_named("Q14", "hybrid", tpch_db).run(session)
        swole = compile_named("Q14", "swole", tpch_db).run(session)
        assert swole.value == hybrid.value
        assert swole.cycles == pytest.approx(hybrid.cycles, rel=0.01)


class TestQ19:
    def test_revenue_matches_reference(self, tpch_db):
        # Q19's triple-guarded disjunction selects only a handful of
        # tuples ("only a handful of tuples comprise the final
        # aggregate"); at tiny scale factors that handful can be empty.
        result = _check("Q19", "swole", tpch_db)
        assert result.value["revenue"] >= 0

    def test_revenue_positive_at_larger_scale(self):
        from repro.datagen import tpch as tpchgen

        db = tpchgen.generate(tpchgen.TpchConfig(scale_factor=0.02))
        result = _check("Q19", "swole", db)
        assert result.value["revenue"] > 0


class TestPaperOrdering:
    """Fig. 6 shape: SWOLE never loses to hybrid by more than noise, and
    wins clearly on the bitmap queries."""

    @pytest.fixture(scope="class")
    def costs(self, tpch_db, tpch_config):
        session = Session(
            machine=PAPER_MACHINE.scaled(tpch_config.machine_scale)
        )
        out = {}
        for name in ALL_QUERIES:
            out[name] = {
                s: compile_named(name, s, tpch_db).run(session).cycles
                for s in ("datacentric", "hybrid", "swole")
            }
        return out

    @pytest.mark.parametrize("name", ALL_QUERIES)
    def test_swole_never_flips_the_winner(self, costs, name):
        assert costs[name]["swole"] <= costs[name]["hybrid"] * 1.10

    @pytest.mark.parametrize("name", ("Q4", "Q5"))
    def test_bitmap_queries_win_big(self, costs, name):
        assert costs[name]["hybrid"] / costs[name]["swole"] > 1.5

    def test_headline_speedup(self, costs):
        """The paper's headline: SWOLE outperforms hybrid by >2.6x on its
        best query."""
        best = max(
            costs[q]["hybrid"] / costs[q]["swole"] for q in ALL_QUERIES
        )
        assert best > 2.6
