"""TPC-H demo: regenerate the paper's Figure 6 at a chosen scale.

Generates TPC-H data, runs the paper's eight queries under every
strategy, prints the Figure 6 table (with the paper's reported SWOLE
speedups alongside), and then zooms into Q4 — the paper's biggest win —
showing where each strategy's cycles go. Everything runs through one
:class:`repro.Engine`, so the eight queries compile once into its plan
cache.

Run:  python examples/tpch_demo.py [scale_factor]
"""

import sys

from repro import Engine
from repro.bench.tpch import run_fig6
from repro.datagen import tpch as tpchgen
from repro.engine.machine import PAPER_MACHINE
from repro.tpch import logical_plan


def main() -> None:
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    config = tpchgen.TpchConfig(scale_factor=sf)
    print(f"generating TPC-H SF {sf} ...")
    db = tpchgen.generate(config)
    for name in db.catalog.table_names:
        print(f"  {name:<10s} {db.table(name).num_rows:>10,d} rows")
    print()

    report = run_fig6(config, db=db)
    print(report.format_table())
    print()

    print("Q4 anatomy (hash semijoin vs positional bitmap):")
    # The instrumented backend prices every access; the vectorized
    # serving default reports no cycles.
    engine = Engine(
        db,
        machine=PAPER_MACHINE.scaled(config.machine_scale),
        backend="instrumented",
    )
    for strategy in ("hybrid", "swole"):
        result = engine.execute(logical_plan("Q4"), strategy)
        print(f"--- {strategy}")
        print(result.report.breakdown())
    print()
    print("(the bitmap build replaces the giant hash-table insert phase)")


if __name__ == "__main__":
    main()
