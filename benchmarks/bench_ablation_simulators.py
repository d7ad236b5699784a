"""Ablation: closed-form access costs vs exact trace-driven simulators.

DESIGN.md commits to validating the analytic cost model against the
set-associative LRU cache simulator and the two-bit branch predictor.
These benches do that at small scale:

* the analytic conditional-read cost must track the simulated average
  latency *ordering* across densities;
* the analytic random-access capacity model must track simulated miss
  behaviour across structure sizes;
* the analytic branch model must match the simulated predictor within a
  few percent across the selectivity sweep.
"""

import numpy as np
import pytest

from repro.engine.branch import TwoBitPredictor, steady_state_mispredict_rate
from repro.engine.cache import (
    CacheHierarchy,
    SetAssociativeCache,
    conditional_trace,
    random_trace,
)
from repro.engine.costing import CostAccountant
from repro.engine.events import CondRead
from repro.engine.machine import MachineModel

#: A miniature machine whose caches the trace simulator can hold.
TINY = MachineModel(
    l1_bytes=2 * 1024, l2_bytes=8 * 1024, llc_bytes=32 * 1024
)
ACC = CostAccountant(TINY)
ROWS = 16_384


def _hierarchy():
    return CacheHierarchy(
        [
            SetAssociativeCache(TINY.l1_bytes, ways=4),
            SetAssociativeCache(TINY.l2_bytes, ways=8),
            SetAssociativeCache(TINY.llc_bytes, ways=8),
        ],
        [TINY.lat_l1, TINY.lat_l2, TINY.lat_llc],
        TINY.lat_mem,
    )


def _simulated_cond_read(density, rng):
    selected = rng.random(ROWS) < density
    hier = _hierarchy()
    total = hier.run_trace(conditional_trace(0, ROWS, 8, selected))
    return total


def test_cond_read_ordering_matches_simulation(rng=np.random.default_rng(7)):
    densities = (0.02, 0.2, 0.9)
    simulated = [_simulated_cond_read(d, rng) for d in densities]
    analytic = [
        ACC.cond_read(
            CondRead(n_range=ROWS, n_selected=int(ROWS * d), width=8)
        )
        for d in densities
    ]
    assert simulated == sorted(simulated)
    assert analytic == sorted(analytic)


def test_random_access_capacity_cliff_matches_simulation():
    rng = np.random.default_rng(11)
    sizes = (1024, 16 * 1024, 512 * 1024)
    simulated = []
    for size in sizes:
        hier = _hierarchy()
        hier.run_trace(random_trace(0, size, 4000, 8, rng))
        simulated.append(hier.expected_latency())
    analytic = [TINY.random_latency(size) for size in sizes]
    assert simulated == sorted(simulated)
    assert analytic == sorted(analytic)
    # the cliff: the biggest structure is dramatically worse than the
    # smallest in both worlds
    assert simulated[-1] > 3 * simulated[0]
    assert analytic[-1] > 3 * analytic[0]


@pytest.mark.parametrize("p", (0.1, 0.3, 0.5, 0.7, 0.9))
def test_branch_model_matches_trace_simulator(p):
    rng = np.random.default_rng(13)
    outcomes = rng.random(30_000) < p
    simulated = TwoBitPredictor().run_trace(outcomes) / outcomes.shape[0]
    analytic = steady_state_mispredict_rate(p)
    assert simulated == pytest.approx(analytic, abs=0.03)


def test_bench_trace_simulation_speed(benchmark):
    """Wall-time of the exact simulator (why the hot path is analytic)."""
    rng = np.random.default_rng(3)
    trace = random_trace(0, 16 * 1024, 2000, 8, rng)

    def run():
        hier = _hierarchy()
        return hier.run_trace(trace)

    benchmark.group = "ablation:simulators"
    benchmark.pedantic(run, rounds=3, iterations=1)
