"""Closed-loop adaptation benchmark: ``python -m repro.bench --adapt-bench``.

Demonstrates the adaptive loop end to end against the failure mode it
was built for: the planner estimates predicate selectivities from a
64K-row *prefix* sample (:mod:`repro.plan.passes`), so on data
clustered by the filter column the estimates are wrong by construction
— the prefix only sees the low end of the value range. A fleet of
closed-loop clients drives ``strategy="auto"`` requests through an
in-process :class:`~repro.server.service.QueryService` backed by an
adaptive :class:`~repro.Engine` in three phases:

1. **baseline** — a warm workload at one selectivity; the loop
   explores the strategy × backend arms, measures the real survival
   fraction from the instrumented runs, re-optimizes past the drift
   threshold, and settles on a winner arm;
2. **post_shift** — the workload's selectivity shifts (a new filter
   constant, i.e. a new plan fingerprint whose prefix-sample estimate
   is wrong again); this window absorbs the fresh exploration and the
   drift-driven recompile;
3. **adapted** — the same shifted workload after the loop has
   converged again.

The report records the loop's contract: at least one recompile after
the shift, zero failed requests, post-adaptation throughput within
10% of the pre-shift baseline. The correctness bar — every strategy ×
backend cell answering as a static engine does with the overrides
active — is a tier-1 test
(``tests/test_adaptive.py::TestEngineIntegration``).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, Optional

import numpy as np

from ..adaptive import AdaptivePolicy
from ..datagen import microbench as mb
from ..datagen.cache import load_dataset
from ..engine import Engine
from ..server.protocol import QueryRequest
from ..server.service import QueryService
from ..storage.database import Database
from ..storage.table import Column, Table
from .microbench import scaled_machine

#: Selectivities (percent) before and after the mid-run shift. The
#: shift goes *down* so the shifted workload is no heavier than the
#: baseline: the recovery ratio then isolates the adaptation cost
#: (exploration + recompile) instead of mixing in extra selected rows.
BASELINE_SEL = 60
SHIFTED_SEL = 30

#: Bench policy: adapt fast — short EWMA horizon, explore every 4th
#: request, two selectivity samples arm the drift check.
BENCH_POLICY = AdaptivePolicy(
    alpha=0.5,
    explore_every=4,
    drift_threshold=0.3,
    min_observations=2,
)


def clustered_microbench(config: mb.MicrobenchConfig) -> Database:
    """The microbench database with R physically clustered on ``r_x``.

    Sorting by the filter column leaves every query's *answer*
    unchanged (uQ1 aggregates are order-insensitive) but breaks the
    planner's prefix sampling: the first 64K rows hold only the lowest
    ``r_x`` values, so a ``r_x < k`` estimate saturates toward 1.0
    while the true selectivity is ``k``%.
    """
    db = load_dataset("microbench", config)
    r = db.table("R")
    values = db.data("R")
    order = np.argsort(values["r_x"], kind="stable")
    clustered = Database()
    clustered.add_table(
        Table(
            "R",
            [
                Column(
                    col.name,
                    col.logical_type,
                    col.values[order],
                    col.dictionary,
                    col.scale,
                )
                for col in r.columns
            ],
        )
    )
    clustered.add_table(db.table("S"))
    clustered.add_foreign_key("R", "r_fk", "S", "s_pk")
    return clustered


def _drive_phase(
    service: QueryService,
    query,
    *,
    clients: int,
    requests_per_client: int,
    deadline: float,
) -> Dict[str, float]:
    """Run one closed-loop window; returns qps / ok / failed counts.

    In-process plan objects never coalesce, so every request is a
    real execution feeding the adaptive loop.
    """
    barrier = threading.Barrier(clients + 1)
    ok = [0] * clients
    failed = [0] * clients

    def client(idx: int) -> None:
        barrier.wait()
        for _ in range(requests_per_client):
            response = service.execute(
                QueryRequest(
                    query=query, strategy="auto", deadline=deadline
                ),
                timeout=deadline * 4,
            )
            if response is not None and response.ok:
                ok[idx] += 1
            else:
                failed[idx] += 1

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    total_ok = sum(ok)
    return {
        "requests": clients * requests_per_client,
        "ok": total_ok,
        "failed": sum(failed),
        "wall_seconds": wall,
        "qps": total_ok / wall if wall > 0 else 0.0,
    }


def run_adapt_bench(
    *,
    rows: int = 400_000,
    seed: Optional[int] = None,
    clients: int = 4,
    requests_per_client: int = 24,
    concurrency: int = 2,
    deadline: float = 10.0,
    out_path: str = "BENCH_adaptive.json",
) -> dict:
    """Run the three-phase closed loop and write the JSON report.

    ``rows`` must comfortably exceed the planner's 64K-row prefix
    sample or clustering cannot bias the estimates and no drift
    exists to recover from.
    """
    config = mb.MicrobenchConfig(
        num_rows=rows,
        s_rows=500,
        c_cardinality=64,
        seed=seed if seed is not None else 7,
    )
    db = clustered_microbench(config)
    machine = scaled_machine(config)

    engine = Engine(
        db, machine=machine, workers=2, adaptive=BENCH_POLICY
    )
    baseline_query = mb.q1(BASELINE_SEL)
    shifted_query = mb.q1(SHIFTED_SEL)

    print(
        f"adapt-bench: {rows:,} clustered rows, {clients} clients x "
        f"{requests_per_client} requests/phase-window, policy "
        f"explore_every={BENCH_POLICY.explore_every} "
        f"drift_threshold={BENCH_POLICY.drift_threshold}"
    )
    phases = []
    with engine:
        service = QueryService(
            engine, concurrency=concurrency, coalesce=False
        )
        try:
            # Phase 1 runs two windows: the first converges (explore,
            # measure, re-optimize), the second is the settled
            # *baseline* the recovery ratio is judged against.
            drive = dict(
                clients=clients,
                requests_per_client=requests_per_client,
                deadline=deadline,
            )
            before = engine.adaptive.recompiles
            _drive_phase(service, baseline_query, **drive)
            window = _drive_phase(service, baseline_query, **drive)
            window.update(
                name="baseline",
                selectivity=BASELINE_SEL,
                recompiles_during=engine.adaptive.recompiles - before,
            )
            phases.append(window)

            # Phase 2: the workload shifts. This window absorbs the new
            # fingerprint's exploration and the drift-driven recompile.
            at_shift = engine.adaptive.recompiles
            window = _drive_phase(service, shifted_query, **drive)
            window.update(
                name="post_shift",
                selectivity=SHIFTED_SEL,
                recompiles_during=(
                    engine.adaptive.recompiles - at_shift
                ),
            )
            phases.append(window)

            # Phase 3: same shifted workload, loop converged.
            before = engine.adaptive.recompiles
            window = _drive_phase(service, shifted_query, **drive)
            window.update(
                name="adapted",
                selectivity=SHIFTED_SEL,
                recompiles_during=engine.adaptive.recompiles - before,
            )
            phases.append(window)
        finally:
            service.drain()

        recompiles_after_shift = (
            engine.adaptive.recompiles - at_shift
        )
        snapshot = engine.adaptive.snapshot()
        winners = {
            name: engine.adaptive.store.best_arm(fingerprint)
            for name, fingerprint in (
                (
                    "q1_baseline",
                    _fingerprint(baseline_query),
                ),
                ("q1_shifted", _fingerprint(shifted_query)),
            )
        }

    baseline_qps = phases[0]["qps"]
    adapted_qps = phases[2]["qps"]
    report = {
        "bench": "adaptive",
        "config": {
            "rows": rows,
            "seed": config.seed,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "concurrency": concurrency,
            "baseline_selectivity": BASELINE_SEL,
            "shifted_selectivity": SHIFTED_SEL,
        },
        "policy": {
            "alpha": BENCH_POLICY.alpha,
            "explore_every": BENCH_POLICY.explore_every,
            "drift_threshold": BENCH_POLICY.drift_threshold,
            "min_observations": BENCH_POLICY.min_observations,
        },
        "phases": phases,
        "recompiles_after_shift": recompiles_after_shift,
        "failed_requests": sum(p["failed"] for p in phases),
        "throughput_recovered": (
            adapted_qps / baseline_qps if baseline_qps > 0 else 0.0
        ),
        "winners": {
            name: (f"{arm[0]}/{arm[1]}" if arm else None)
            for name, arm in winners.items()
        },
        "plan_cache": engine.plan_cache.stats.snapshot(),
        "adaptive": snapshot,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for phase in phases:
        print(
            f"  {phase['name']:<10s} sel={phase['selectivity']:>2d}%  "
            f"{phase['qps']:8.1f} qps  ok={phase['ok']} "
            f"failed={phase['failed']} "
            f"recompiles={phase['recompiles_during']}"
        )
    print(
        f"  recompiles after shift: {recompiles_after_shift}; "
        f"throughput recovered: {report['throughput_recovered']:.2f}x "
        f"of baseline"
    )
    print(f"  report -> {out_path}")
    return report


def _fingerprint(query) -> str:
    from ..engine.plan_cache import query_fingerprint

    return query_fingerprint(query)


__all__ = [
    "BASELINE_SEL",
    "BENCH_POLICY",
    "SHIFTED_SEL",
    "clustered_microbench",
    "run_adapt_bench",
]
