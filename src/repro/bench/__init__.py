"""Benchmark harnesses regenerating every table and figure in the paper."""

from .microbench import (
    DEFAULT_SELECTIVITIES,
    SweepResult,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    run_strategies,
    scaled_machine,
)
from .tpch import FIG6_SERIES, PAPER_SWOLE_SPEEDUPS, TpchReport, run_fig6

__all__ = [
    "DEFAULT_SELECTIVITIES",
    "FIG6_SERIES",
    "PAPER_SWOLE_SPEEDUPS",
    "SweepResult",
    "TpchReport",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "run_fig6",
    "run_strategies",
    "scaled_machine",
]
