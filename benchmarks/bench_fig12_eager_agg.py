"""Figure 12: µQ5 — eager aggregation vs the traditional groupjoin.

Shape assertions (paper §IV-B5): eager aggregation is ~flat across the
build-side selectivity (slightly improving toward 100 % as fewer
aggregates are deleted); the pushdown strategies pay hash lookups for
every probe tuple; the technique pays off earlier for the small build
table than the large one.
"""

import pytest

from repro.bench import microbench as sweep
from repro.codegen.lower import eager_aggregate
from repro.core.eager_aggregation import groupjoin_pipeline
from repro.datagen import microbench as mb
from repro.engine.session import Session

from conftest import BENCH_CONFIG, BENCH_SELS

#: First sweep point at which the planner rewrites the groupjoin to
#: eager aggregation, per panel (earlier for the cache-resident build).
FIG12_FIRST_EAGER = {mb.PAPER_S_SMALL: 50, mb.PAPER_S_LARGE: 75}


@pytest.fixture(scope="module")
def small_panel():
    return sweep.fig12(
        mb.PAPER_S_SMALL, config=BENCH_CONFIG, selectivities=BENCH_SELS
    )


@pytest.fixture(scope="module")
def large_panel():
    return sweep.fig12(
        mb.PAPER_S_LARGE, config=BENCH_CONFIG, selectivities=BENCH_SELS
    )


def test_fig12_wall_time_eager(benchmark, micro_db, micro_machine):
    session = Session(machine=micro_machine)
    benchmark.group = "fig12"
    benchmark.pedantic(
        lambda: groupjoin_pipeline(
            session, micro_db, eager_aggregate(mb.q5(50))
        ),
        rounds=3,
        iterations=1,
    )


def _forced_eager_series(panel_s_rows):
    """Measure EA directly across the sweep (independent of the planner)."""
    s_rows = max(int(panel_s_rows / BENCH_CONFIG.scale_factor), 64)
    if panel_s_rows == mb.PAPER_S_SMALL:
        s_rows = min(mb.PAPER_S_SMALL, BENCH_CONFIG.num_rows)
    config = mb.MicrobenchConfig(
        num_rows=BENCH_CONFIG.num_rows, s_rows=s_rows,
        c_cardinality=BENCH_CONFIG.c_cardinality,
    )
    db = mb.generate(config)
    machine = sweep.scaled_machine(config)
    costs = []
    for sel in BENCH_SELS:
        session = Session(machine=machine)
        groupjoin_pipeline(session, db, eager_aggregate(mb.q5(sel)))
        costs.append(session.tracer.report.total_cycles)
    return costs


def test_fig12_eager_flat_and_slightly_improving(small_panel):
    costs = _forced_eager_series(mb.PAPER_S_SMALL)
    assert max(costs) / min(costs) < 1.25
    assert costs[-1] <= costs[0]  # fewer deletions near 100%


def test_fig12_eager_wins_small_build_table(small_panel):
    mid = small_panel.x_values.index(50)
    assert (
        small_panel.series["swole"][mid]
        < small_panel.series["hybrid"][mid]
    )


def test_fig12_crossover_later_for_large_table(small_panel, large_panel):
    def first_eager_decision(panel):
        for sel in panel.x_values:
            if "eager" in panel.decisions[sel]:
                return sel
        return 101

    assert first_eager_decision(small_panel) <= first_eager_decision(
        large_panel
    )


def test_fig12_pushdowns_similar(large_panel):
    """Paper: data-centric and hybrid nearly identical on µQ5."""
    mid = large_panel.x_values.index(50)
    ratio = (
        large_panel.series["datacentric"][mid]
        / large_panel.series["hybrid"][mid]
    )
    assert 0.6 < ratio < 2.0


def test_fig12_planner_decisions_unchanged(small_panel, large_panel):
    for panel, s_rows in (
        (small_panel, mb.PAPER_S_SMALL),
        (large_panel, mb.PAPER_S_LARGE),
    ):
        assert panel.decisions == {
            sel: "aggregation=gathered, join(r_fk)=hash, groupjoin="
            + (
                "eager_aggregation"
                if sel >= FIG12_FIRST_EAGER[s_rows]
                else "groupjoin"
            )
            for sel in BENCH_SELS
        }, s_rows
