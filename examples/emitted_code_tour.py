"""Emitted-code tour: what the one compiler generates (paper Figs 1/3/4/5).

For the paper's running examples — the simple aggregation, the group-by,
the repeated-reference query (access merging), the semijoin (positional
bitmap) and the groupjoin (eager aggregation) — prints
``Engine.explain()`` (logical plan -> passes with their cost estimates ->
physical plan) and the real kernel source the vectorized backend
generated and ran, hybrid next to SWOLE.

The engine always lets the planner choose. Forcing a technique for an
ablation needs no knob — the stages are public — and the last section
shows it: ``run_passes`` -> edit the ``Decisions`` -> ``lower_plan`` ->
``pipeline.instrumented_run`` (the counted kernels, priced).

Run:  python examples/emitted_code_tour.py
"""

from repro import Engine, Session
from repro.codegen.lower import lower_plan
from repro.codegen.pipeline import instrumented_run
from repro.datagen import microbench as mb
from repro.plan.passes import KEY_MASK, VALUE_MASK, run_passes


def show(title: str, text: str) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(text)
    print()


def tour(engine: Engine, title: str, query) -> None:
    """explain() for SWOLE, then the generated kernels, hybrid vs SWOLE."""
    show(f"{title} — explain(swole)", engine.explain(query, "swole"))
    for strategy in ("hybrid", "swole"):
        show(
            f"{title} — generated kernel [{strategy}]",
            engine.compile(query, strategy).source,
        )


def main() -> None:
    db = mb.generate(mb.MicrobenchConfig(num_rows=100_000, s_rows=1_000))
    engine = Engine(db)  # vectorized backend: programs carry real source

    # Figures 1 and 3: selection vector + gather vs value masking
    tour(engine, "Fig 1/3 — scalar aggregation", mb.q1(13))
    # Figure 4: group-by aggregation
    tour(engine, "Fig 4 — group-by", mb.q2(60))
    # Figure 5: r_x feeds the predicate and the aggregate, read once
    tour(engine, "Fig 5 — access merging", mb.q3(13, "r_x"))
    # §III-D: hash semijoin vs positional bitmap
    tour(engine, "§III-D — semijoin", mb.q4(50, 50))
    # §III-E: hash groupjoin vs eager aggregation + cleanup scan
    tour(engine, "§III-E — groupjoin", mb.q5(80))

    # Forced techniques through the staged API (Fig. 4 top vs bottom):
    # the planner picks one of them at a given selectivity; an ablation
    # wants both.
    grouped = mb.q2(13)
    session = Session(machine=engine.machine)
    for mode in (VALUE_MASK, KEY_MASK):
        bound, decisions, _ = run_passes(
            grouped, db, engine.machine, "swole", None, encoding="off"
        )
        planned = decisions.agg_mode
        decisions.agg_mode = mode
        physical = lower_plan(bound, decisions, db, "swole")
        session.reset()
        instrumented_run(physical, db)(session)
        show(
            f"Fig 4 — forced {mode} (the planner chose {planned}): "
            f"{session.tracer.report.total_cycles:,.0f} simulated cycles",
            physical.describe(),
        )


if __name__ == "__main__":
    main()
