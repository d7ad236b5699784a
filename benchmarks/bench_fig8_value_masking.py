"""Figure 8: µQ1 — value masking vs data-centric vs hybrid.

Shape assertions (paper §IV-B1):
* 8a (multiplication, memory-bound): data-centric shows the branch-
  misprediction hump peaking near 50 %; value masking is flat and wins
  nearly everywhere.
* 8b (division, compute-bound): value masking only pays off near 100 %
  selectivity; the SWOLE planner falls back to hybrid below that.
"""

import pytest

from repro.bench import microbench as sweep
from repro.datagen import microbench as mb

from conftest import BENCH_CONFIG, BENCH_SELS

#: The planner's choice per sweep point (8a: masking everywhere; 8b:
#: the hybrid fallback until only ~1 % of the divisions are wasted).
FIG8A_DECISIONS = dict.fromkeys(BENCH_SELS, "aggregation=value_mask")
FIG8B_DECISIONS = {
    **dict.fromkeys(BENCH_SELS, "aggregation=gathered"),
    99: "aggregation=value_mask",
}


@pytest.fixture(scope="module")
def fig8a(micro_db):
    return sweep.fig8("mul", config=BENCH_CONFIG, db=micro_db,
                      selectivities=BENCH_SELS)


@pytest.fixture(scope="module")
def fig8b(micro_db):
    return sweep.fig8("div", config=BENCH_CONFIG, db=micro_db,
                      selectivities=BENCH_SELS)


@pytest.mark.parametrize("strategy", ("datacentric", "hybrid", "swole"))
@pytest.mark.parametrize("sel", (10, 50, 90))
def test_fig8_wall_time(benchmark, micro_engine, micro_session, strategy,
                        sel):
    compiled = micro_engine.compile(mb.q1(sel), strategy)
    benchmark.group = f"fig8a:sel={sel}"
    benchmark.pedantic(
        lambda: compiled.run(micro_session), rounds=3, iterations=1
    )


def _at(result, strategy, sel):
    return result.series[strategy][result.x_values.index(sel)]


def test_fig8a_datacentric_hump_peaks_mid_selectivity(fig8a):
    dc = fig8a.series["datacentric"]
    peak_sel = fig8a.x_values[dc.index(max(dc))]
    assert 25 <= peak_sel <= 75
    assert max(dc) > 1.5 * dc[0]
    assert max(dc) > 1.5 * dc[-1]


def test_fig8a_value_masking_flat(fig8a):
    sw = fig8a.series["swole"]
    assert max(sw) / min(sw) < 1.1


def test_fig8a_masking_wins_nearly_everywhere(fig8a):
    for sel in (10, 25, 50, 75, 90, 99):
        assert _at(fig8a, "swole", sel) < _at(fig8a, "hybrid", sel)
        assert _at(fig8a, "swole", sel) < _at(fig8a, "datacentric", sel)


def test_fig8b_division_rises_for_pushdown_strategies(fig8b):
    for strategy in ("datacentric", "hybrid"):
        series = fig8b.series[strategy]
        assert series[-1] > 2 * series[0]


def test_fig8b_masking_only_near_full_selectivity(fig8b):
    # hybrid wins at mid selectivities; SWOLE matches it by falling back
    assert _at(fig8b, "swole", 50) == pytest.approx(
        _at(fig8b, "hybrid", 50), rel=0.02
    )


def test_fig8_planner_decisions_unchanged(fig8a, fig8b):
    assert fig8a.decisions == FIG8A_DECISIONS
    assert fig8b.decisions == FIG8B_DECISIONS


def test_fig8b_datacentric_does_not_recover_after_peak(fig8b):
    dc = fig8b.series["datacentric"]
    assert dc[-1] >= 0.9 * max(dc)  # no post-50% decline (paper 8b)
