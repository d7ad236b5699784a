"""Quickstart: one Engine, every strategy, identical answers.

Generates the paper's microbenchmark table R, builds
``select sum(r_a * r_b) from R where r_x < 13 and r_y = 1`` as an
operator tree with the fluent :class:`repro.PlanBuilder` (the front-door
query API), executes it under the interpreter, data-centric, hybrid, and
SWOLE strategies, and prints the answer (identical by construction),
simulated runtime, and the SWOLE planner's technique choice. The table
runs on the instrumented backend (the costing authority); a second pass
shows the vectorized serving backend (the engine default) — same bits,
real wall-clock speed, plan cache hit.

Run:  python examples/quickstart.py
"""

from repro import AggSpec, Col, Engine, PlanBuilder
from repro.bench.microbench import scaled_machine
from repro.datagen import microbench as mb


def main() -> None:
    config = mb.MicrobenchConfig(num_rows=500_000, s_rows=5_000)
    db = mb.generate(config)
    machine = scaled_machine(config)  # caches shrink with the data
    engine = Engine(db, machine=machine, workers=4)

    # select sum(r_a * r_b) from R where r_x < 13 and r_y = 1
    plan = (
        PlanBuilder.scan("R")
        .filter(Col("r_x") < 13, Col("r_y").eq(1))
        .group_agg(AggSpec("sum", Col("r_a") * Col("r_b"), name="sum"))
        .build("uQ1[mul,13]")
    )
    print(f"query: {plan.name}   |R| = {config.num_rows:,}")
    print()

    # The simulated-seconds table needs the instrumented backend (the
    # costing authority); the vectorized serving default prices nothing.
    results = {
        strategy: engine.execute(
            plan, strategy, workers=1, backend="instrumented"
        )
        for strategy in ("interpreter", "datacentric", "hybrid", "swole")
    }
    swole = engine.compile(plan)  # "auto" resolves to SWOLE; cached
    print(f"SWOLE plan: {swole.notes['plan']}")
    print()

    answer = results["swole"].scalar("sum")
    print(f"{'strategy':>12s} {'answer':>16s} {'simulated':>12s} {'vs hybrid':>10s}")
    hybrid_seconds = results["hybrid"].seconds
    for strategy, result in results.items():
        assert result.scalar("sum") == answer, "strategies disagree!"
        speedup = hybrid_seconds / result.seconds
        print(
            f"{strategy:>12s} {result.scalar('sum'):>16,d} "
            f"{result.seconds:>10.4f}s {speedup:>9.2f}x"
        )

    print()
    # Engine defaults: the vectorized backend (generated NumPy kernels
    # a cache-sized row block at a time, C once a program is hot —
    # same bits, real wall-clock speed), 4 workers.
    parallel = engine.execute(plan)
    assert parallel.scalar("sum") == answer, "parallel run diverged!"
    print("same query on the vectorized serving backend (engine default):")
    print(parallel.metrics.describe())
    print(
        f"wall: {parallel.metrics.wall_seconds * 1e3:.1f} ms vectorized "
        f"vs {results['swole'].metrics.wall_seconds * 1e3:.1f} ms "
        f"instrumented"
    )
    print()
    print("cost breakdown of the SWOLE program:")
    print(results["swole"].report.breakdown())


if __name__ == "__main__":
    main()
