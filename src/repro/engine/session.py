"""Execution sessions: machine model + tracer + execution knobs."""

from __future__ import annotations

from dataclasses import dataclass

from .costing import Tracer
from .machine import PAPER_MACHINE, MachineModel


@dataclass
class ExecutionKnobs:
    """Per-run execution switches threaded through the strategies.

    ht_prefetch:
        Hash-table kernels mark their random accesses as
        software-prefetched: relaxed operator fusion (ROF) is the
        hybrid strategy run with this knob on.
    morsel_rows:
        Row-range size of one morsel for the parallel executor. ``None``
        lets the executor pick a size from the scan length and worker
        count.
    min_parallel_rows:
        Scan length below which partitionable programs run serial
        anyway (the thread fan-out floor). ``None`` defers to the
        executor's ``MIN_PARALLEL_ROWS``. Set explicitly — or
        let an adaptive engine seed it from the feedback store's
        measured serial-vs-parallel crossover — to override the
        built-in constant per host. A pinned ``morsel_rows`` disables
        the floor entirely, as before.
    """

    ht_prefetch: bool = False
    morsel_rows: int | None = None
    min_parallel_rows: int | None = None


class Session:
    """Everything a compiled program needs to run and be costed.

    All parameters are keyword-only.

    Parameters
    ----------
    machine:
        The simulated machine (defaults to the paper's Xeon). Use
        ``machine.scaled(f)`` when the data was shrunk by ``f`` relative
        to the paper's scale.
    knobs:
        Execution switches (:class:`ExecutionKnobs`); a fresh default
        instance when omitted.
    """

    def __init__(
        self,
        *,
        machine: MachineModel = PAPER_MACHINE,
        knobs: ExecutionKnobs | None = None,
    ) -> None:
        self.machine = machine
        self.knobs = knobs if knobs is not None else ExecutionKnobs()
        self.tracer = Tracer(machine)

    def reset(self) -> "Session":
        """Discard accumulated cost state; returns self.

        The tracer is reset *in place* (fresh report, same tracer and
        accountant objects), so one session serves many runs.
        """
        self.tracer.reset()
        return self
