"""Custom workload: bring your own table and let SWOLE plan it.

Shows the public API end to end on data that is *not* one of the bundled
generators: build a Database from NumPy arrays, express the query as an
operator tree with the fluent :class:`repro.PlanBuilder`, inspect the
staged lowering (logical plan, strategy passes with their cost-model
estimates, physical plan) via ``Engine.explain``, and run the chosen
plan. The dictionary-encoded ``source = 'ads'`` literal stays symbolic
in the plan — the binding pass resolves it to its dictionary code at
compile time.

The scenario: a web-analytics events table where a marketing query sums
session revenue for one traffic source, grouped by country.

Run:  python examples/custom_workload.py
"""

import numpy as np

from repro import AggSpec, Col, Engine, PlanBuilder
from repro.bench.microbench import scaled_machine
from repro.datagen.microbench import MicrobenchConfig
from repro.plan.expressions import DictEq
from repro.storage.column import Column, LogicalType, string_column
from repro.storage.database import Database
from repro.storage.table import Table


def build_events(n: int = 1_000_000, seed: int = 3) -> Database:
    rng = np.random.default_rng(seed)
    sources = rng.choice(
        ["ads", "email", "organic", "referral", "social"], size=n
    )
    events = Table(
        name="events",
        columns=(
            string_column("source", sources),
            Column("country", LogicalType.INT16, rng.integers(0, 200, n)),
            Column("revenue_cents", LogicalType.INT32,
                   rng.integers(0, 5_000, n)),
            Column("pages", LogicalType.INT8, rng.integers(1, 40, n)),
        ),
    )
    db = Database()
    db.add_table(events)
    return db


def main() -> None:
    db = build_events()

    plan = (
        PlanBuilder.scan("events")
        .filter(DictEq("source", "ads"), Col("pages") > 3)
        .group_agg(
            AggSpec("sum", Col("revenue_cents"), name="revenue"),
            AggSpec("count", name="sessions"),
            key="country",
        )
        .build("ads-revenue-by-country")
    )

    # caches scaled as if this were a 100M-row production table
    machine = scaled_machine(MicrobenchConfig(num_rows=1_000_000))
    engine = Engine(db, machine=machine, workers=4)

    # the staged lowering: logical plan, passes (with the cost-model
    # estimates behind every applied/declined technique), physical plan
    print(engine.explain(plan))
    print()

    # Instrumented backend: the simulated-runtime comparison below is
    # priced by the cost model (the vectorized serving default, which
    # answers identically, prices nothing).
    result = engine.execute(plan, backend="instrumented")
    hybrid = engine.execute(plan, "hybrid", backend="instrumented")
    served = engine.execute(plan)  # the vectorized serving default
    assert np.array_equal(result.value["keys"], served.value["keys"])
    assert np.array_equal(result.value["aggs"], served.value["aggs"])
    assert np.array_equal(result.value["keys"], hybrid.value["keys"])
    assert np.array_equal(result.value["aggs"], hybrid.value["aggs"])

    top = np.argsort(result.value["aggs"][:, 0])[-5:][::-1]
    print("top countries by ad revenue (revenue cents, sessions):")
    for i in top:
        key = result.value["keys"][i]
        revenue, sessions = result.value["aggs"][i]
        print(f"  country {key:>3d}: {revenue:>12,d} {sessions:>9,d}")
    print()
    print(
        f"simulated runtime: swole {result.seconds:.4f}s vs "
        f"hybrid {hybrid.seconds:.4f}s "
        f"({hybrid.seconds / result.seconds:.2f}x)"
    )
    print(
        f"served: {served.metrics.workers} workers, "
        f"{served.metrics.morsels} morsels, "
        f"{served.metrics.wall_seconds * 1e3:.1f} ms wall"
    )


if __name__ == "__main__":
    main()
