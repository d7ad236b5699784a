"""Figure 9: µQ2 — key masking across group-by cardinalities.

Shape assertions (paper §IV-B2):
* 10 and 1K keys: masking ~ flat, indistinguishable panels;
* crossovers move to higher selectivity as the hash table grows;
* at the 10M-key panel the pushdown (hybrid) stays competitive until
  high selectivity — masking is *not* the dominant strategy Voodoo
  claimed.
"""

import pytest

from repro.bench import microbench as sweep
from repro.datagen import microbench as mb
from repro.engine.session import Session

from conftest import BENCH_CONFIG, BENCH_SELS, instrumented_engine

CARDS = (10, 1_000, 10_000_000)

#: The planner's switch points per panel: pushdown -> value masking at
#: 50 % on the cache-resident tables; on the 10M-key table pushdown
#: holds through 50 %, key masking takes 75-90 %, value masking 99 %.
_SMALL = dict(zip(BENCH_SELS, ["gathered"] * 3 + ["value_mask"] * 4))
FIG9_DECISIONS = {
    10: _SMALL,
    1_000: _SMALL,
    10_000_000: dict(
        zip(
            BENCH_SELS,
            ["gathered"] * 4 + ["key_mask"] * 2 + ["value_mask"],
        )
    ),
}


@pytest.fixture(scope="module")
def panels():
    return {
        card: sweep.fig9(card, config=BENCH_CONFIG, selectivities=BENCH_SELS)
        for card in CARDS
    }


@pytest.mark.parametrize("strategy", ("hybrid", "swole"))
@pytest.mark.parametrize("card", (1_000, 10_000_000))
def test_fig9_wall_time(benchmark, micro_machine, strategy, card):
    scaled_card = max(int(card / BENCH_CONFIG.scale_factor), 4)
    config = mb.MicrobenchConfig(
        num_rows=BENCH_CONFIG.num_rows,
        s_rows=BENCH_CONFIG.s_rows,
        c_cardinality=scaled_card,
    )
    engine = instrumented_engine(mb.generate(config), micro_machine)
    compiled = engine.compile(mb.q2(50), strategy)
    session = Session(machine=micro_machine)
    benchmark.group = f"fig9:card={card}"
    benchmark.pedantic(
        lambda: compiled.run(session), rounds=3, iterations=1
    )


def test_fig9_small_panels_indistinguishable(panels):
    """Paper: 10 vs 1K keys is 'almost indistinguishable'."""
    small = panels[10].series["swole"]
    medium = panels[1_000].series["swole"]
    for a, b in zip(small, medium):
        assert a == pytest.approx(b, rel=0.5)


def test_fig9_masking_flat_on_small_tables(panels):
    sw = panels[10].series["swole"]
    # flat once the planner has switched to masking (high selectivity)
    tail = sw[-3:]
    assert max(tail) / min(tail) < 1.15


def test_fig9_large_table_runtimes_dominate(panels):
    """Hash misses make the 10M-key panel far slower than the 10-key one."""
    assert (
        panels[10_000_000].series["hybrid"][-1]
        > 2 * panels[10].series["hybrid"][-1]
    )


def test_fig9_hybrid_competitive_until_high_selectivity_on_large_tables(
    panels,
):
    big = panels[10_000_000]
    mid = big.x_values.index(50)
    assert big.series["swole"][mid] >= big.series["hybrid"][mid] * 0.95


def test_fig9_masking_not_dominant(panels):
    """The anti-Voodoo claim: there exist configurations where the
    pushdown beats every masking variant."""
    big = panels[10_000_000]
    low = big.x_values.index(10)
    assert "gathered" in big.decisions[10]
    assert big.series["hybrid"][low] <= big.series["datacentric"][low]


def test_fig9_planner_decisions_unchanged(panels):
    for card, expected in FIG9_DECISIONS.items():
        assert panels[card].decisions == {
            sel: f"aggregation={mode}" for sel, mode in expected.items()
        }, card
