"""Shared fixtures: small generated databases and sessions."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.codegen import native
from repro.codegen.lower import lower_plan
from repro.codegen.physexec import execute_plan
from repro.codegen.pipeline import compile_pipeline
from repro.codegen.vectorize import compile_physical
from repro.datagen import microbench as mb
from repro.datagen import tpch
from repro.engine.machine import PAPER_MACHINE
from repro.engine.plan_cache import plan_key
from repro.engine.pool import WorkerPool
from repro.engine.program import CompiledQuery
from repro.engine.session import Session
from repro.plan.passes import run_passes
from repro.tpch import logical_plan


def compile_named(name, strategy, db, **config) -> CompiledQuery:
    """TPC-H query ``name`` through the staged pipeline; ``config`` is
    :func:`plan_key`'s (instrumented unless ``backend=`` says
    otherwise)."""
    plan = logical_plan(name)
    return compile_pipeline(plan, db, plan_key(plan, strategy, **config))


def drain(batch):
    """Run a :class:`MorselBatch` on a throwaway pool; the batch stays
    inspectable (``cancelled`` / ``values``) afterwards."""
    with WorkerPool(workers=batch.workers) as pool:
        return pool.run_batch(batch)


def staged_program(
    plan, db, strategy="swole", *, machine=PAPER_MACHINE, **forced
) -> CompiledQuery:
    """An instrumented program built through the public stages, with
    ``forced`` fields written over the planner's ``Decisions`` before
    lowering — the forced-technique ablation path (``agg_mode=``,
    ``merged_columns=``, ``groupjoin_mode=``; ``join_mode=`` sets one
    flavour on every spine join). Scans read decoded values so event
    array names and widths are the stored columns'."""
    bound, decisions, _ = run_passes(
        plan, db, machine, strategy, None, encoding="off"
    )
    for name, value in forced.items():
        if name == "join_mode":
            decisions.join_modes = dict.fromkeys(decisions.join_modes, value)
        else:
            assert hasattr(decisions, name), name
            setattr(decisions, name, value)
    physical = lower_plan(bound, decisions, db, strategy)
    return CompiledQuery(
        name=plan.name,
        strategy=strategy,
        source=physical.describe(),
        _fn=lambda session: execute_plan(physical, db, session),
        notes={"plan": decisions.describe(), "decisions": decisions},
    )


def vectorized_program(plan, db, strategy="swole", registry=None, **forced):
    """A :class:`VectorizedProgram` built through the public stages,
    with ``forced`` fields written over the planner's ``Decisions``
    (``agg_mode=``) — the vectorized twin of :func:`staged_program`,
    for tests that drive the native tier below the engine."""
    bound, decisions, _ = run_passes(plan, db, PAPER_MACHINE, strategy)
    for name, value in forced.items():
        assert hasattr(decisions, name), name
        setattr(decisions, name, value)
    return compile_physical(
        lower_plan(bound, decisions, db, strategy), db, registry=registry
    )


def assert_value_equals(expected, value, cell):
    """``value`` (a result dict) equals ``expected`` key by key, arrays
    element-wise; ``cell`` labels the failure."""
    assert set(value) == set(expected), cell
    for key in expected:
        lhs, rhs = expected[key], value[key]
        if isinstance(lhs, np.ndarray):
            assert np.array_equal(lhs, np.asarray(rhs)), (cell, key)
        else:
            assert lhs == rhs, (cell, key)


#: Marks a test that builds a native kernel.
requires_cc = pytest.mark.skipif(
    native.find_compiler() is None,
    reason="no C compiler (cc) on PATH: native kernels cannot be built",
)


@pytest.fixture(scope="session", autouse=True)
def _isolated_dataset_cache_dir(tmp_path_factory):
    """Point the process-wide dataset cache at a per-run temp dir so
    tests never read or pollute the user's ``~/.cache``."""
    import repro.datagen.cache as cache_mod

    cache_dir = tmp_path_factory.mktemp("dataset-cache")
    old_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    cache_mod._default_cache = None
    yield
    if old_env is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old_env
    cache_mod._default_cache = None


@pytest.fixture(autouse=True)
def _parked_native_builder(monkeypatch):
    """Park the native builder thread, so which kernel a test exercises
    is never a race: programs stay on their NumPy kernel unless the
    test builds them itself (``program.build_now()``) or unparks the
    builder."""
    monkeypatch.setattr(native.builder(), "parked", True)


@pytest.fixture(scope="session")
def micro_db():
    """A small microbenchmark database shared across tests."""
    return mb.generate(
        mb.MicrobenchConfig(num_rows=50_000, s_rows=500, c_cardinality=64)
    )


@pytest.fixture(scope="session")
def micro_config():
    return mb.MicrobenchConfig(num_rows=50_000, s_rows=500, c_cardinality=64)


@pytest.fixture(scope="session")
def tpch_db():
    """A tiny TPC-H database shared across tests."""
    return tpch.generate(tpch.TpchConfig(scale_factor=0.002))


@pytest.fixture(scope="session")
def tpch_config():
    return tpch.TpchConfig(scale_factor=0.002)


@pytest.fixture()
def session():
    """A fresh execution session on the paper machine."""
    return Session(machine=PAPER_MACHINE)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
