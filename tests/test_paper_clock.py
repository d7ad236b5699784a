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

import pytest

from repro import Engine
from repro.bench.tpch import FIG6_SERIES
from repro.datagen import microbench as mb
from repro.datagen import tpch
from repro.tpch import PIPELINE_QUERIES, logical_plan

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
