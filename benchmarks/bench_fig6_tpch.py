"""Figure 6: TPC-H runtimes per strategy.

Wall-time benchmarks execute each compiled query program; the module
also runs the simulated-cycle report once and asserts the paper's
orderings (SWOLE never loses to hybrid, bitmap queries win big, the
headline >2.6x speedup exists). Print the full table with
``python -m repro.bench fig6``.
"""

import pytest

from repro.bench.tpch import PAPER_SWOLE_SPEEDUPS, run_fig6
from repro.codegen.pipeline import compile_pipeline
from repro.engine import plan_key
from repro.tpch import logical_plan, query_names

from conftest import BENCH_TPCH

QUERIES = tuple(query_names())
STRATEGIES = ("datacentric", "hybrid", "swole")


@pytest.fixture(scope="module")
def fig6_report(tpch_db):
    return run_fig6(BENCH_TPCH, db=tpch_db)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("query", QUERIES)
def test_fig6_wall_time(benchmark, tpch_db, tpch_session, query, strategy):
    plan = logical_plan(query)
    compiled = compile_pipeline(plan, tpch_db, plan_key(plan, strategy))
    benchmark.group = f"fig6:{query}"
    benchmark.pedantic(
        lambda: compiled.run(tpch_session), rounds=3, iterations=1
    )


def test_fig6_swole_never_flips_winner(fig6_report):
    for row in fig6_report.rows:
        assert row.seconds["swole"] <= row.seconds["hybrid"] * 1.10, row.query


def test_fig6_bitmap_queries_win(fig6_report):
    assert fig6_report.row("Q4").swole_speedup > 1.5
    assert fig6_report.row("Q5").swole_speedup > 1.5


def test_fig6_headline_speedup(fig6_report):
    best = max(row.swole_speedup for row in fig6_report.rows)
    assert best > 2.6  # the paper's headline number


def test_fig6_interpreter_is_sanity_floor(fig6_report):
    for row in fig6_report.rows:
        assert row.seconds["interpreter"] >= row.seconds["datacentric"]


def test_fig6_report_covers_paper_queries(fig6_report):
    assert {row.query for row in fig6_report.rows} == set(
        PAPER_SWOLE_SPEEDUPS
    )
