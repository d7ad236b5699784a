"""The paper's clock, cell by cell: exact simulated cycles of every
TPC-H cell (tier-1 SF) and µQ1–µQ5 on the instrumented backend, for
encoding auto and off.

``snapshots/paper_clock.json`` holds two columns per cell: ``parent``,
the cycles when hash accesses were priced from the table's lifetime
mean probe count, and ``stage2``, the cycles with hash accesses priced
from occupancy at build completion — what the program must reproduce
bit for bit. A change to the pricing, the passes or the lowering that
moves a cell must rewrite the ``stage2`` column, and say why in
CHANGES.md::

    PYTHONPATH=src python tests/test_paper_clock.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Engine
from repro.codegen.price import _Table
from repro.bench.tpch import FIG6_SERIES
from repro.datagen import microbench as mb
from repro.datagen import tpch
from repro.engine import reference
from repro.engine.hashtable import table_geometry
from repro.engine.kernels import ht_op_cycles
from repro.plan.builder import PlanBuilder
from repro.plan.expressions import Col, Const
from repro.plan.ops import AggSpec
from repro.storage.column import Column, LogicalType
from repro.storage.database import Database
from repro.storage.table import Table
from repro.tpch import PIPELINE_QUERIES, logical_plan

from .conftest import assert_value_equals

TABLE = Path(__file__).parent / "snapshots" / "paper_clock.json"

#: The tier-1 databases (``conftest.tpch_db`` / ``conftest.micro_db``).
TPCH_CONFIG = tpch.TpchConfig(scale_factor=0.002)
MICRO_CONFIG = mb.MicrobenchConfig(
    num_rows=50_000, s_rows=500, c_cardinality=64
)

#: One sweep point per microbenchmark query.
MICRO_QUERIES = {
    "uQ1-mul-30": lambda: mb.q1(30, "mul"),
    "uQ1-div-30": lambda: mb.q1(30, "div"),
    "uQ2-30": lambda: mb.q2(30),
    "uQ3-r_x-30": lambda: mb.q3(30, "r_x"),
    "uQ4-30-90": lambda: mb.q4(30, 90),
    "uQ5-30": lambda: mb.q5(30),
}

ENCODINGS = ("auto", "off")


def _plans(workload: str):
    if workload == "tpch":
        return [(name, lambda n=name: logical_plan(n)) for name in PIPELINE_QUERIES]
    return list(MICRO_QUERIES.items())


def measure(workload: str, db) -> dict:
    """``cell -> total cycles`` of one database's cells."""
    cycles = {}
    for encoding in ENCODINGS:
        engine = Engine(db, backend="instrumented", encoding=encoding)
        for name, make in _plans(workload):
            for strategy in FIG6_SERIES:
                result = engine.execute(make(), strategy)
                cycles[f"{name}/{strategy}/{encoding}"] = result.cycles
    return cycles


def _load() -> dict:
    return json.loads(TABLE.read_text())


@pytest.fixture(scope="module")
def table():
    return _load()


@pytest.mark.parametrize("workload", ("tpch", "micro"))
def test_every_cell_reproduces_its_cycles(table, workload, tpch_db, micro_db):
    db = tpch_db if workload == "tpch" else micro_db
    want = {
        cell: entry["stage2"] for cell, entry in table[workload].items()
    }
    got = measure(workload, db)
    assert set(got) == set(want)
    moved = {
        cell: (want[cell], got[cell])
        for cell in want
        if got[cell] != want[cell]
    }
    assert not moved, moved


def test_prices_a_group_by_the_planner_underestimates():
    """The planner sizes a group-by's table from a 65,536-row prefix
    sample; here the prefix holds 8 keys and the tail 4,464 more, so
    the sampled estimate is far short of the groups. The priced table
    is then sized from the groups the kernel counted, and the paper's
    clock answers what the serving path answers."""
    prefix, tail = 65_536, 4_464
    keys = np.concatenate((np.arange(prefix) % 8, 8 + np.arange(tail)))
    db = Database()
    db.add_table(
        Table(
            name="t",
            columns=(
                Column("k", LogicalType.INT32, keys.astype(np.int32)),
                Column(
                    "v", LogicalType.INT32,
                    (np.arange(keys.size) % 97).astype(np.int32),
                ),
            ),
        )
    )
    plan = (
        PlanBuilder.scan("t")
        .filter(Col("v") > Const(10))
        .group_agg(AggSpec("sum", Col("v"), name="s"), key="k")
        .build("skewed-prefix-group-by")
    )
    expected = reference.evaluate(plan, db)
    engine = Engine(db)
    for strategy in FIG6_SERIES:
        priced = engine.execute(plan, strategy, backend="instrumented")
        served = engine.execute(plan, strategy, backend="vectorized")
        assert_value_equals(expected, priced.value, strategy)
        assert_value_equals(expected, served.value, strategy)
        assert priced.cycles > 0


def test_a_table_resizes_only_when_its_entries_fill_it(session):
    """The known cliff of sizing from entries only where a full table
    would raise: one entry short of full still prices as sized, near
    ``capacity / 2`` probes an access, while a full one is resized to
    half load. (Moving the threshold would move priced cells.)"""
    capacity, nbytes = table_geometry(8, 1)
    near = _Table(8, 1, capacity - 1)
    full = _Table(8, 1, capacity)
    assert (near.capacity, near.nbytes) == (capacity, nbytes)
    assert (full.capacity, full.nbytes) == table_geometry(capacity, 1)
    base = session.machine.op_cost("hash")
    # α = 15/16: ½(1 + 16) = 8.5 probes; α = 16/32: 1.5 probes.
    assert ht_op_cycles(session, near.entries, near.capacity) == base + 15.0
    assert ht_op_cycles(session, full.entries, full.capacity) == base + 1.0


def _write(column: str) -> None:
    table = _load() if TABLE.exists() else {}
    for workload, db in (
        ("tpch", tpch.generate(TPCH_CONFIG)),
        ("micro", mb.generate(MICRO_CONFIG)),
    ):
        cells = table.setdefault(workload, {})
        for cell, cycles in measure(workload, db).items():
            cells.setdefault(cell, {})[column] = cycles
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write("parent" if "--parent" in sys.argv else "stage2")
