"""TPC-H benchmark harness — regenerates paper Figure 6.

Runs the paper's eight queries under every strategy at a configurable
scale factor (caches scale to keep SF-10 ratios) and reports simulated
runtimes plus the speedup columns the paper discusses (hybrid over
data-centric, SWOLE over hybrid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..datagen import tpch as tpchgen
from ..datagen.cache import load_dataset
from ..engine.facade import Engine
from ..engine.machine import PAPER_MACHINE
from ..storage.database import Database
from ..tpch import logical_plan, query_names

#: Strategy series of Figure 6 (interpreter plays HyPer's sanity role).
FIG6_SERIES = ("interpreter", "datacentric", "hybrid", "swole")

#: Speedups over hybrid the paper reports per query (for EXPERIMENTS.md).
PAPER_SWOLE_SPEEDUPS = {
    "Q1": 1.43,
    "Q3": 1.48,
    "Q4": 2.63,
    "Q5": 2.55,
    "Q6": 1.38,
    "Q13": 1.0,
    "Q14": 1.0,
    "Q19": 2.07,
}


@dataclass
class TpchRow:
    """One query's simulated runtimes (seconds) per strategy."""

    query: str
    seconds: Dict[str, float]

    @property
    def hybrid_speedup(self) -> float:
        """Hybrid over data-centric (paper's second comparison)."""
        return self.seconds["datacentric"] / self.seconds["hybrid"]

    @property
    def swole_speedup(self) -> float:
        """SWOLE over hybrid (the paper's headline per-query number)."""
        return self.seconds["hybrid"] / self.seconds["swole"]


@dataclass
class TpchReport:
    """The full Figure 6 table."""

    scale_factor: float
    rows: List[TpchRow] = field(default_factory=list)
    cache_stats: Dict[str, float] = field(default_factory=dict)

    def format_table(self) -> str:
        header = (
            f"{'query':>6s} "
            + " ".join(f"{name:>12s}" for name in FIG6_SERIES)
            + f" {'hy/dc':>7s} {'sw/hy':>7s} {'paper':>7s}"
        )
        lines = [
            f"Fig 6: TPC-H (SF {self.scale_factor}, simulated seconds)",
            header,
        ]
        for row in self.rows:
            cells = " ".join(
                f"{row.seconds[name]:>12.4f}" for name in FIG6_SERIES
            )
            lines.append(
                f"{row.query:>6s} {cells} {row.hybrid_speedup:>7.2f} "
                f"{row.swole_speedup:>7.2f} "
                f"{PAPER_SWOLE_SPEEDUPS[row.query]:>7.2f}"
            )
        best = max(row.swole_speedup for row in self.rows)
        lines.append(f"best SWOLE speedup over hybrid: {best:.2f}x "
                     f"(paper: 2.63x)")
        return "\n".join(lines)

    def row(self, query: str) -> TpchRow:
        for row in self.rows:
            if row.query == query:
                return row
        raise KeyError(query)


def run_fig6(
    config: tpchgen.TpchConfig = tpchgen.TpchConfig(scale_factor=0.01),
    queries: Optional[Sequence[str]] = None,
    strategies: Sequence[str] = FIG6_SERIES,
    db: Optional[Database] = None,
    plan_cache: str = "warm",
) -> TpchReport:
    """Run the Figure 6 experiment and return the report.

    ``plan_cache="cold"`` drops compiled plans between queries.
    """
    if db is None:
        db = load_dataset("tpch", config)
    machine = PAPER_MACHINE.scaled(config.machine_scale)
    # Figure 6 reports simulated seconds: instrumented backend only.
    engine = Engine(db, machine=machine, backend="instrumented")
    report = TpchReport(scale_factor=config.scale_factor)
    for name in queries or query_names():
        if plan_cache == "cold":
            engine.invalidate()
        plan = logical_plan(name)
        seconds = {
            strategy: engine.execute(plan, strategy).seconds
            for strategy in strategies
        }
        report.rows.append(TpchRow(query=name, seconds=seconds))
    report.cache_stats = engine.cache_stats.snapshot()
    return report
