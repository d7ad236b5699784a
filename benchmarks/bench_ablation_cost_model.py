"""Ablation: cost-model-driven planning vs forced techniques.

DESIGN.md commits to quantifying the planner: across the microbenchmark
sweeps, compare SWOLE-with-planner against SWOLE forced to a single
technique, and measure the planner's regret (how much worse than the
measured-best choice it is).

This reproduces the paper's claim that *no technique dominates* —
forcing either masking variant everywhere loses somewhere — and that
the cost models pick well enough that the planner's regret stays small.
"""

import pytest

from repro.datagen import microbench as mb
from repro.engine.session import Session
from repro.plan.passes import VALUE_MASK

from conftest import instrumented_engine, staged_program

SELS = (1, 10, 25, 50, 75, 90, 99)


@pytest.fixture(scope="module")
def costs(micro_db, micro_machine, micro_engine):
    """Measured cycles per (selectivity, variant) for µQ1-mul and -div."""
    session = Session(machine=micro_machine)
    out = {}
    for op in ("mul", "div"):
        for sel in SELS:
            query = mb.q1(sel, op)
            forced = staged_program(
                query, micro_db, micro_machine, agg_mode=VALUE_MASK
            )
            out[(op, sel)] = {
                "hybrid": micro_engine.execute(query, "hybrid").cycles,
                "forced_vm": forced.run(session).cycles,
                "planned": micro_engine.execute(query, "swole").cycles,
            }
    return out


def test_no_single_technique_dominates(costs):
    """Forcing value masking everywhere loses on compute-bound queries;
    forcing hybrid everywhere loses on memory-bound ones."""
    vm_loses_somewhere = any(
        costs[("div", sel)]["forced_vm"]
        > costs[("div", sel)]["hybrid"] * 1.05
        for sel in SELS
    )
    hybrid_loses_somewhere = any(
        costs[("mul", sel)]["hybrid"]
        > costs[("mul", sel)]["forced_vm"] * 1.05
        for sel in SELS
    )
    assert vm_loses_somewhere
    assert hybrid_loses_somewhere


def test_planner_regret_is_bounded(costs):
    """The planned choice is within 25% of the measured-best variant at
    every sweep point (boundary points are allowed to be near-ties)."""
    for key, row in costs.items():
        best = min(row["hybrid"], row["forced_vm"])
        assert row["planned"] <= best * 1.25, key


def test_planner_picks_each_side_of_the_crossover(costs):
    assert costs[("mul", 50)]["planned"] == pytest.approx(
        costs[("mul", 50)]["forced_vm"], rel=0.02
    )
    assert costs[("div", 25)]["planned"] == pytest.approx(
        costs[("div", 25)]["hybrid"], rel=0.02
    )


def test_bench_planned_compile_and_run(benchmark, micro_db, micro_machine):
    session = Session(machine=micro_machine)

    def run():
        # a fresh engine per round: plan, lower and run, uncached
        engine = instrumented_engine(micro_db, micro_machine)
        return engine.compile(mb.q1(50), "swole").run(session)

    benchmark.group = "ablation:cost-model"
    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bench_bitmap_compression_tradeoff(benchmark, rng=None):
    """Packed vs block-compressed positional bitmaps (paper §III-D's
    size-vs-access tradeoff)."""
    import numpy as np

    from repro.storage.bitmap import BlockCompressedBitmap, bitmap_from_mask

    generator = np.random.default_rng(5)
    mask = np.zeros(1_000_000, dtype=bool)
    # clustered qualifying range (e.g. a date-correlated predicate):
    # most blocks are uniformly zero, so block compression pays off
    mask[200_000:205_000] = True
    packed = bitmap_from_mask(mask)
    compressed = BlockCompressedBitmap(packed, block_bits=4096)
    assert compressed.nbytes < packed.nbytes / 4  # sparse -> big win
    probes = generator.integers(0, 1_000_000, 100_000)
    assert np.array_equal(compressed.test(probes), packed.test(probes))

    benchmark.group = "ablation:bitmap-compression"
    benchmark.pedantic(
        lambda: compressed.test(probes), rounds=3, iterations=1
    )
