"""Shared benchmark fixtures.

Benchmarks measure two things:

* **wall time** (pytest-benchmark) of actually executing the compiled
  kernel programs at a small scale — a sanity check that the programs do
  real work;
* **simulated cycles** (the numbers the paper's figures are about),
  computed by sweep fixtures and asserted/reported per figure.

Scales are kept small so the whole suite runs in minutes; run
``python -m repro.bench all --rows 4000000`` for higher-fidelity sweeps.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.bench import microbench as sweep
from repro.codegen.lower import lower_plan
from repro.codegen.physexec import execute_plan
from repro.datagen import microbench as mb
from repro.datagen import tpch as tpchgen
from repro.engine.machine import PAPER_MACHINE
from repro.engine.program import CompiledQuery
from repro.engine.session import Session
from repro.plan.passes import run_passes

#: Microbench scale for benchmark runs (paper: 100M rows).
BENCH_CONFIG = mb.MicrobenchConfig(num_rows=200_000, s_rows=2_000,
                                   c_cardinality=256)
#: Sweep selectivities (coarser than the harness default, for speed).
BENCH_SELS = (1, 10, 25, 50, 75, 90, 99)
#: TPC-H scale for benchmark runs (paper: SF 10).
BENCH_TPCH = tpchgen.TpchConfig(scale_factor=0.005)


def staged_program(plan, db, machine, strategy="swole", **forced):
    """A forced-technique program through the public stages:
    ``run_passes`` -> write ``forced`` over the ``Decisions`` ->
    ``lower_plan`` -> ``physexec.execute_plan`` (decoded scans)."""
    bound, decisions, _ = run_passes(
        plan, db, machine, strategy, None, encoding="off"
    )
    for name, value in forced.items():
        assert hasattr(decisions, name), name
        setattr(decisions, name, value)
    physical = lower_plan(bound, decisions, db, strategy)
    return CompiledQuery(
        name=plan.name,
        strategy=strategy,
        source=physical.describe(),
        _fn=lambda session: execute_plan(physical, db, session),
    )


def instrumented_engine(db, machine) -> Engine:
    """Simulated cycles are the instrumented backend's job."""
    return Engine(db, machine=machine, backend="instrumented")


@pytest.fixture(scope="session")
def micro_db():
    return mb.generate(BENCH_CONFIG)


@pytest.fixture(scope="session")
def micro_machine():
    return sweep.scaled_machine(BENCH_CONFIG)


@pytest.fixture(scope="session")
def micro_engine(micro_db, micro_machine):
    return instrumented_engine(micro_db, micro_machine)


@pytest.fixture(scope="session")
def micro_session(micro_machine):
    return Session(machine=micro_machine)


@pytest.fixture(scope="session")
def tpch_db():
    return tpchgen.generate(BENCH_TPCH)


@pytest.fixture(scope="session")
def tpch_session():
    return Session(machine=PAPER_MACHINE.scaled(BENCH_TPCH.machine_scale))
