"""The ledger's five workloads.

A *cell* is one (query, strategy) pair; an *op* is one timed call on
one cell; a *round* visits every cell of the workload once, in an
order shuffled from the run's seed. The dataset itself is the TPC-H
generator's fixed default (its own seed 42) at the workload's scale
factor, so simulated cycle counts repeat exactly whatever ``--seed``
says; the seed decides the order the requests arrive in.

This module imports nothing from ``repro`` so the orchestrating
process can list workloads without loading the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

#: The three code-generating strategies every warm workload compares.
COMPILED = ("datacentric", "hybrid", "swole")
#: Figure 6's series (``repro.bench.tpch.FIG6_SERIES``; pinned equal
#: by ``ledger/tests``).
FIG6 = ("interpreter", "datacentric", "hybrid", "swole")
TPCH = ("Q1", "Q3", "Q4", "Q5", "Q6", "Q13", "Q14", "Q19")

#: Root ops — the call an untraced run times.
ROOT_EXECUTE = "engine.execute"
ROOT_REQUEST = "client.request"
ROOT_COMPILE = "engine.compile"
ROOT_SIMULATE = "engine.execute.instrumented"


@dataclass(frozen=True)
class Workload:
    name: str
    queries: Tuple[str, ...]
    strategies: Tuple[str, ...]
    scale_factor: float
    root: str

    @property
    def cells(self) -> List[Tuple[str, str]]:
        return [(q, s) for q in self.queries for s in self.strategies]


#: Why each exists is recorded once, in ``BENCHMARK.json`` (and spelled
#: out in ``ledger/README.md``); here are the inputs.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Streams: scan/aggregate kernels over columns past L2.
        Workload("scan_warm", ("Q1", "Q6", "Q14"), COMPILED, 0.05,
                 ROOT_EXECUTE),
        # Random access: hash tables, bitmaps, FK gathers, groupjoin.
        Workload("join_warm", ("Q3", "Q4", "Q5", "Q13", "Q19"), COMPILED,
                 0.05, ROOT_EXECUTE),
        # Short queries over loopback: everything around the kernel.
        Workload("serve_short", ("Q6", "Q13", "Q14", "Q19"),
                 ("hybrid", "swole"), 0.002, ROOT_REQUEST),
        # The plan-cache-miss path on the 32 snapshot cells.
        Workload("compile_cold", TPCH, FIG6, 0.002, ROOT_COMPILE),
        # The paper's clock on the same 32 cells.
        Workload("sim_clock", TPCH, FIG6, 0.01, ROOT_SIMULATE),
    )
}


def cell_orders(n_cells: int, seed: int) -> Iterator[List[int]]:
    """One shuffled visiting order per round, forever; a function of
    ``seed`` alone, so two runs with one seed send the same requests
    in the same order."""
    rng = random.Random(seed)
    while True:
        order = list(range(n_cells))
        rng.shuffle(order)
        yield order


def select(names: Sequence[str]) -> List[Workload]:
    """The named workloads (all five when ``names`` is empty)."""
    return [WORKLOADS[name] for name in names or WORKLOADS]
