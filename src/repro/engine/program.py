"""Compiled query programs.

A code-generation strategy compiles a query into a :class:`CompiledQuery`:
the emitted C-like source (what the strategy *would* hand to a compiler —
shown by the examples and compared against the paper's Figures 1/3/4/5)
plus an executable kernel composition. Running the program produces both
the real query answer and the simulated-cost report.

Vectorized programs whose final pipeline can scan the base table in
independent row ranges additionally declare a :class:`ParallelPlan`,
which the morsel executor (:mod:`repro.engine.executor`) uses to fan
the scan out across worker threads (or, through them, shard worker
processes) and merge the partial states back together. Instrumented
programs declare none: the paper's clock is one serial pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .costing import CostReport
from .session import Session

#: Runs one morsel: ``partial(ctx, lo, hi) -> partial value``.
PartialFn = Callable[[Any, int, int], Dict[str, Any]]


@dataclass
class ParallelPlan:
    """A program's declaration that its final pipeline is partitionable.

    The executor splits ``[0, n_rows)`` of the scan table into morsels,
    runs ``partial`` per morsel on worker threads (NumPy releases the
    GIL in the hot kernels), and merges the partial values. ``setup()``
    runs once before the fan-out (hash-table builds, bitmap builds) and
    its result is passed to every ``partial`` as read-only shared state;
    ``finalize(merged, ctx)`` runs once on the merged value (e.g. eager
    aggregation's cleanup). None of them takes a session: morsels are
    priced by no tracer.

    ``sharded`` marks a plan whose ``partial`` runs in a shard worker
    process (:func:`repro.engine.shard.remote_plan`): reported as
    ``RunMetrics.sharded``, and fanned out even on one lane.
    """

    table: str
    n_rows: int
    partial: PartialFn
    setup: Optional[Callable[[], Any]] = None
    finalize: Optional[
        Callable[[Dict[str, Any], Any], Dict[str, Any]]
    ] = None
    sharded: bool = False


def merge_partials(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-morsel partial values into one query answer.

    Scalar aggregates (sums/counts) add; grouped results merge by key
    with ascending-key output, which makes the merged group-by output
    deterministic regardless of morsel boundaries or worker timing. A
    single part is already the answer (its keys are ascending and
    unique) and is returned unchanged.
    """
    if not parts:
        return {}
    first = parts[0]
    if len(parts) == 1:
        return first
    if "keys" in first and "aggs" in first:
        keys = np.concatenate([np.asarray(p["keys"]) for p in parts])
        aggs = np.concatenate(
            [np.atleast_2d(np.asarray(p["aggs"])) for p in parts]
        )
        if keys.size == 0:
            return {"keys": keys, "aggs": aggs}
        # Same-key rows become one run each (stable sort keeps them in
        # part order), summed by a segmented reduction.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(
            np.concatenate(([True], keys[1:] != keys[:-1]))
        )
        return {
            "keys": keys[starts],
            "aggs": np.add.reduceat(aggs[order], starts, axis=0),
        }
    out: Dict[str, Any] = {}
    for part in parts:
        for name, value in part.items():
            out[name] = out.get(name, 0) + value
    # Integer partials are int64 sums: fold the unbounded Python total
    # back into two's complement, so an overflowing aggregate wraps
    # exactly as the one int64 sum over the whole scan would.
    return {
        name: (total + 2**63) % 2**64 - 2**63
        if isinstance(total, int)
        else total
        for name, total in out.items()
    }


@dataclass
class QueryResult:
    """The answer plus the cost report of one program run."""

    value: Dict[str, Any]
    report: CostReport

    @property
    def cycles(self) -> float:
        return self.report.total_cycles

    @property
    def seconds(self) -> float:
        return self.report.seconds

    @property
    def metrics(self):
        """Run metrics (:class:`~repro.engine.metrics.RunMetrics`) when
        the program ran through the executor; ``None`` otherwise."""
        return self.report.metrics

    def scalar(self, name: str = "sum") -> int:
        """Convenience accessor for single-aggregate results."""
        return self.value[name]

    def groups(self) -> Dict[int, tuple]:
        """Grouped results as a key -> aggregates mapping (sorted keys).

        Aggregate dtypes are preserved (fractional aggregates stay
        fractional; integers come back as Python ints).
        """
        keys = np.asarray(self.value["keys"])
        aggs = np.asarray(self.value["aggs"])
        return {
            int(k): tuple(a.item() for a in row)
            for k, row in zip(keys, aggs)
        }


@dataclass
class CompiledQuery:
    """A query compiled by one strategy: source text + runnable kernels."""

    name: str
    strategy: str
    source: str
    _fn: Callable[[Session], Dict[str, Any]]
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Declared by strategies whose scan pipeline is partitionable.
    parallel: Optional[ParallelPlan] = None
    #: The :class:`~repro.codegen.npexec.VectorizedProgram` behind
    #: ``_fn`` on the vectorized backend (its native tier is inspected
    #: and forced through it); ``None`` on the instrumented one.
    program: Any = None

    def run(self, session: Optional[Session] = None) -> QueryResult:
        """Execute the program serially; return the answer and report.

        A fresh tracer is used per run so repeated runs do not
        accumulate. Use :class:`repro.Engine` (or the executor directly)
        for morsel-parallel runs.
        """
        if session is None:
            session = Session()
        session.reset()
        with session.tracer.kernel(f"{self.strategy}:{self.name}"):
            value = self._fn(session)
        return QueryResult(value=value, report=session.tracer.report)


def results_equal(a: QueryResult, b: QueryResult) -> bool:
    """Structural equality of two query answers (ignores costs).

    Scalar aggregates compare exactly; grouped results compare as sorted
    key -> aggregates mappings.
    """
    if set(a.value) != set(b.value):
        return False
    for key in a.value:
        lhs, rhs = a.value[key], b.value[key]
        if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
            if not np.array_equal(np.asarray(lhs), np.asarray(rhs)):
                return False
        elif lhs != rhs:
            return False
    return True
