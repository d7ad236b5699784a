"""Selectivity explorer: sweep any microbenchmark figure from the CLI.

Interactively reproduces the paper's microbenchmark curves — pick a
figure and watch where the strategies cross over and what the SWOLE
planner decides at each point. Pass ``--plan-cache cold`` to recompile
at every sweep point instead of reusing the engine's plan cache.

Run:  python examples/selectivity_explorer.py fig8 mul
      python examples/selectivity_explorer.py fig9 100000
      python examples/selectivity_explorer.py fig11 probe 90
      python examples/selectivity_explorer.py fig12 1000000 --plan-cache cold
"""

import sys

from repro.bench import microbench as sweep
from repro.datagen import microbench as mb

CONFIG = mb.MicrobenchConfig(num_rows=1_000_000, s_rows=10_000)


def main() -> None:
    args = sys.argv[1:]
    plan_cache = "warm"
    if "--plan-cache" in args:
        at = args.index("--plan-cache")
        plan_cache = args[at + 1]
        del args[at : at + 2]
    par = dict(plan_cache=plan_cache)

    figure = args[0] if args else "fig8"
    if figure == "fig8":
        op = args[1] if len(args) > 1 else "mul"
        result = sweep.fig8(op, config=CONFIG, **par)
    elif figure == "fig9":
        cardinality = int(args[1]) if len(args) > 1 else 100_000
        result = sweep.fig9(cardinality, config=CONFIG, **par)
    elif figure == "fig10":
        col = args[1] if len(args) > 1 else "r_x"
        result = sweep.fig10(col, config=CONFIG, **par)
    elif figure == "fig11":
        side = args[1] if len(args) > 1 else "probe"
        fixed = int(args[2]) if len(args) > 2 else 90
        result = sweep.fig11(side, fixed, config=CONFIG, **par)
    elif figure == "fig12":
        s_rows = int(args[1]) if len(args) > 1 else mb.PAPER_S_LARGE
        result = sweep.fig12(s_rows, config=CONFIG, **par)
    else:
        raise SystemExit(f"unknown figure {figure!r} (fig8..fig12)")

    print(result.format_table())
    print()
    crossover = result.crossover("swole", "hybrid")
    if crossover is None:
        print("SWOLE never overtakes hybrid in this configuration")
    else:
        print(f"SWOLE overtakes hybrid at {crossover}% selectivity")


if __name__ == "__main__":
    main()
