"""Microbenchmark sweep harness — regenerates paper Figures 8-12.

Each ``fig*`` function runs the corresponding microbenchmark
configuration across a selectivity sweep and returns a
:class:`SweepResult` with one simulated-runtime series per strategy.
Strategies and data sizes follow the paper; data is shrunk by
``config.scale_factor`` and the machine model's caches shrink by the
same factor, preserving every structure-size : cache-size ratio.

The module is import-light on purpose: the pytest-benchmark files under
``benchmarks/`` call these functions, and each also has a ``main`` that
prints the paper-style series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..datagen import microbench as mb
from ..datagen.cache import load_dataset
from ..engine.facade import Engine
from ..engine.machine import PAPER_MACHINE, MachineModel
from ..plan.ops import LogicalPlan
from ..storage.database import Database

#: Selectivity sweep used by every figure (the paper plots 0-100 %).
DEFAULT_SELECTIVITIES = (1, 5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99)

#: Strategy series shown in the paper's microbenchmark figures.
PAPER_SERIES = ("datacentric", "hybrid", "swole")


@dataclass
class SweepResult:
    """One figure panel: simulated seconds per strategy per x value."""

    title: str
    x_label: str
    x_values: List[int] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    decisions: Dict[int, str] = field(default_factory=dict)
    #: Worker count the sweep ran with (seconds are the simulated
    #: critical path when > 1).
    workers: int = 1
    #: Plan-cache counters of the sweep's engine (hits/misses/...).
    cache_stats: Dict[str, float] = field(default_factory=dict)

    def add(self, x: int, strategy: str, seconds: float) -> None:
        if x not in self.x_values:
            self.x_values.append(x)
        self.series.setdefault(strategy, []).append(seconds)

    def format_table(self) -> str:
        names = list(self.series)
        title = self.title
        if self.workers > 1:
            title += f" [{self.workers} workers]"
        header = f"{self.x_label:>6s} " + " ".join(
            f"{name:>12s}" for name in names
        )
        lines = [title, header]
        for i, x in enumerate(self.x_values):
            row = f"{x:>6d} " + " ".join(
                f"{self.series[name][i]:>12.4f}" for name in names
            )
            if x in self.decisions:
                row += f"   [{self.decisions[x]}]"
            lines.append(row)
        if self.cache_stats:
            lines.append(
                "plan cache: hits={hits} misses={misses} "
                "evictions={evictions}".format(**self.cache_stats)
            )
        return "\n".join(lines)

    def crossover(self, a: str, b: str) -> Optional[int]:
        """First x where strategy ``a`` becomes cheaper than ``b``."""
        for i, x in enumerate(self.x_values):
            if self.series[a][i] < self.series[b][i]:
                return x
        return None


def scaled_machine(config: mb.MicrobenchConfig) -> MachineModel:
    """The paper's machine with caches shrunk to match the data shrink."""
    return PAPER_MACHINE.scaled(config.scale_factor)


def run_strategies(
    query: LogicalPlan,
    db: Database,
    machine: MachineModel,
    strategies: Sequence[str] = PAPER_SERIES,
    workers: int = 1,
    engine: Optional[Engine] = None,
) -> Dict[str, float]:
    """Run ``query`` under each strategy; simulated seconds by name.

    With ``workers > 1`` the reported seconds are the simulated parallel
    critical path of the morsel schedule. Pass a shared ``engine`` to
    amortise compilation through its plan cache across calls.
    """
    if engine is None:
        # Simulated-cycle figures are the instrumented backend's job.
        engine = Engine(
            db, machine=machine, workers=workers, backend="instrumented"
        )
    out: Dict[str, float] = {}
    for strategy in strategies:
        result = engine.execute(query, strategy, workers=workers)
        out[strategy] = result.metrics.parallel_seconds
    return out


def _sweep(
    title: str,
    db: Database,
    machine: MachineModel,
    query_for: Callable[[int], LogicalPlan],
    selectivities: Sequence[int],
    strategies: Sequence[str],
    workers: int = 1,
    plan_cache: str = "warm",
) -> SweepResult:
    engine = Engine(
        db, machine=machine, workers=workers, backend="instrumented"
    )
    result = SweepResult(title=title, x_label="sel%", workers=workers)
    for sel in selectivities:
        if plan_cache == "cold":
            engine.invalidate()
        query = query_for(sel)
        seconds = run_strategies(
            query, db, machine, strategies, workers=workers, engine=engine
        )
        for strategy, value in seconds.items():
            result.add(sel, strategy, value)
        # The planner's technique choice, read off the SWOLE program
        # the sweep just ran (a plan-cache hit when "swole" is among
        # the series), minus the per-column encoding suffix — not a
        # technique, and it would swamp the table.
        plan = engine.compile(query, "swole").notes["plan"]
        result.decisions[sel] = plan.split(", encoded_scans=")[0]
    result.cache_stats = engine.cache_stats.snapshot()
    return result


def fig8(
    op: str,
    config: mb.MicrobenchConfig = mb.MicrobenchConfig(),
    selectivities: Sequence[int] = DEFAULT_SELECTIVITIES,
    db: Optional[Database] = None,
    strategies: Sequence[str] = PAPER_SERIES,
    workers: int = 1,
    plan_cache: str = "warm",
) -> SweepResult:
    """Figure 8: µQ1 value masking, ``op`` in {'mul' (8a), 'div' (8b)}."""
    if db is None:
        db = load_dataset("microbench", config)
    machine = scaled_machine(config)
    return _sweep(
        f"Fig 8 ({op}): uQ1 value masking",
        db,
        machine,
        lambda sel: mb.q1(sel, op),
        selectivities,
        strategies,
        workers=workers,
        plan_cache=plan_cache,
    )


def fig9(
    paper_cardinality: int,
    config: Optional[mb.MicrobenchConfig] = None,
    selectivities: Sequence[int] = DEFAULT_SELECTIVITIES,
    strategies: Sequence[str] = PAPER_SERIES,
    workers: int = 1,
    plan_cache: str = "warm",
) -> SweepResult:
    """Figure 9: µQ2 key masking at a group-by cardinality.

    Paper panels use 10 / 1K / 100K / 10M keys at 100M rows. Pass the
    *paper* cardinality; it is shrunk by the same factor as the data (and
    the caches), preserving the hash-table : cache size ratios that drive
    the panel-to-panel crossovers.
    """
    if config is None:
        config = mb.MicrobenchConfig()
    c_cardinality = max(int(paper_cardinality / config.scale_factor), 4)
    config = mb.MicrobenchConfig(
        num_rows=config.num_rows,
        s_rows=config.s_rows,
        c_cardinality=c_cardinality,
        seed=config.seed,
    )
    db = load_dataset("microbench", config)
    machine = scaled_machine(config)
    return _sweep(
        f"Fig 9 (|r_c|={paper_cardinality} paper-scale -> "
        f"{c_cardinality}): uQ2 key masking",
        db,
        machine,
        mb.q2,
        selectivities,
        strategies,
        workers=workers,
        plan_cache=plan_cache,
    )


def fig10(
    col: str,
    config: mb.MicrobenchConfig = mb.MicrobenchConfig(),
    selectivities: Sequence[int] = DEFAULT_SELECTIVITIES,
    db: Optional[Database] = None,
    strategies: Sequence[str] = PAPER_SERIES,
    workers: int = 1,
    plan_cache: str = "warm",
) -> SweepResult:
    """Figure 10: µQ3 access merging, ``col`` in {'r_b' (10a), 'r_x' (10b)}."""
    if db is None:
        db = load_dataset("microbench", config)
    machine = scaled_machine(config)
    return _sweep(
        f"Fig 10 (COL={col}): uQ3 access merging",
        db,
        machine,
        lambda sel: mb.q3(sel, col),
        selectivities,
        strategies,
        workers=workers,
        plan_cache=plan_cache,
    )


def fig11(
    fixed_side: str,
    fixed_sel: int,
    config: Optional[mb.MicrobenchConfig] = None,
    selectivities: Sequence[int] = DEFAULT_SELECTIVITIES,
    strategies: Sequence[str] = PAPER_SERIES,
    workers: int = 1,
    plan_cache: str = "warm",
) -> SweepResult:
    """Figure 11: µQ4 positional bitmaps. ``fixed_side`` is 'probe' or
    'build'; the other side's selectivity sweeps. |S| is the 1M panel,
    scaled."""
    if config is None:
        config = mb.MicrobenchConfig()
    # |S| = 1M at paper scale -> same shrink as R
    s_rows = max(int(mb.PAPER_S_LARGE / config.scale_factor), 64)
    config = mb.MicrobenchConfig(
        num_rows=config.num_rows,
        s_rows=s_rows,
        c_cardinality=config.c_cardinality,
        seed=config.seed,
    )
    db = load_dataset("microbench", config)
    machine = scaled_machine(config)
    if fixed_side == "probe":
        query_for = lambda sel: mb.q4(fixed_sel, sel)  # noqa: E731
        title = f"Fig 11: uQ4 bitmaps, probe sel fixed {fixed_sel}%"
    elif fixed_side == "build":
        query_for = lambda sel: mb.q4(sel, fixed_sel)  # noqa: E731
        title = f"Fig 11: uQ4 bitmaps, build sel fixed {fixed_sel}%"
    else:
        raise ValueError("fixed_side must be 'probe' or 'build'")
    return _sweep(
        title,
        db,
        machine,
        query_for,
        selectivities,
        strategies,
        workers=workers,
        plan_cache=plan_cache,
    )


def fig12(
    s_rows_paper: int,
    config: Optional[mb.MicrobenchConfig] = None,
    selectivities: Sequence[int] = DEFAULT_SELECTIVITIES,
    strategies: Sequence[str] = PAPER_SERIES,
    workers: int = 1,
    plan_cache: str = "warm",
) -> SweepResult:
    """Figure 12: µQ5 eager aggregation, |S| in {1K (12a), 1M (12b)} at
    paper scale (scaled down with the data)."""
    if config is None:
        config = mb.MicrobenchConfig()
    s_rows = max(int(s_rows_paper / config.scale_factor), 64)
    if s_rows_paper == mb.PAPER_S_SMALL:
        # the small panel's table fits caches at any scale; keep 1K keys
        s_rows = min(mb.PAPER_S_SMALL, config.num_rows)
    config = mb.MicrobenchConfig(
        num_rows=config.num_rows,
        s_rows=s_rows,
        c_cardinality=config.c_cardinality,
        seed=config.seed,
    )
    db = load_dataset("microbench", config)
    machine = scaled_machine(config)
    return _sweep(
        f"Fig 12 (|S|={s_rows_paper} paper-scale): uQ5 eager aggregation",
        db,
        machine,
        mb.q5,
        selectivities,
        strategies,
        workers=workers,
        plan_cache=plan_cache,
    )
