"""Figure 11: µQ4 — positional-bitmap semijoins.

Shape assertions (paper §IV-B4): bitmaps significantly outperform both
pushdown strategies in (almost) all configurations and are flat across
selectivity; the exception is the low-probe-selectivity corner where
few hash lookups happen anyway.
"""

import pytest

from repro.bench import microbench as sweep
from repro.datagen import microbench as mb
from repro.engine.session import Session

from conftest import BENCH_CONFIG, BENCH_SELS, instrumented_engine

CONFIGS = (("probe", 10), ("probe", 90), ("build", 10), ("build", 90))

#: All four panels, every sweep point: a positional bitmap built with
#: unconditional mask writes, feeding a masked aggregation.
FIG11_DECISIONS = dict.fromkeys(
    BENCH_SELS, "aggregation=value_mask, join(r_fk)=bitmap_mask"
)


@pytest.fixture(scope="module")
def panels():
    return {
        (side, fixed): sweep.fig11(
            side, fixed, config=BENCH_CONFIG, selectivities=BENCH_SELS
        )
        for side, fixed in CONFIGS
    }


@pytest.fixture(scope="module")
def join_db():
    s_rows = max(int(mb.PAPER_S_LARGE / BENCH_CONFIG.scale_factor), 64)
    return mb.generate(
        mb.MicrobenchConfig(
            num_rows=BENCH_CONFIG.num_rows,
            s_rows=s_rows,
            c_cardinality=BENCH_CONFIG.c_cardinality,
        )
    )


@pytest.mark.parametrize("strategy", ("hybrid", "swole"))
def test_fig11_wall_time(benchmark, join_db, micro_machine, strategy):
    engine = instrumented_engine(join_db, micro_machine)
    compiled = engine.compile(mb.q4(90, 50), strategy)
    session = Session(machine=micro_machine)
    benchmark.group = "fig11"
    benchmark.pedantic(
        lambda: compiled.run(session), rounds=3, iterations=1
    )


def test_fig11_bitmaps_flat_everywhere(panels):
    for result in panels.values():
        sw = result.series["swole"]
        assert max(sw) / min(sw) < 1.3


def test_fig11_bitmaps_win_high_probe_configs(panels):
    for key in (("probe", 90), ("build", 10), ("build", 90)):
        result = panels[key]
        for i in range(len(result.x_values)):
            if result.x_values[i] < 10:
                continue
            assert result.series["swole"][i] <= result.series["hybrid"][i] * 1.2


def test_fig11_low_probe_selectivity_is_the_exception(panels):
    """Paper: 'the only exception is the top left configuration'."""
    result = panels[("probe", 10)]
    hybrid_best = min(result.series["hybrid"])
    swole_flat = min(result.series["swole"])
    assert hybrid_best <= swole_flat * 1.5


def test_fig11_pushdowns_comparable(panels):
    """Paper: data-centric and hybrid perform comparably on this query."""
    result = panels[("build", 90)]
    mid = result.x_values.index(50)
    ratio = result.series["datacentric"][mid] / result.series["hybrid"][mid]
    assert 0.5 < ratio < 3.0


def test_fig11_planner_decisions_unchanged(panels):
    for key, result in panels.items():
        assert result.decisions == FIG11_DECISIONS, key
