"""Access, branch, and compute events priced by the machine model.

Generated programs run for real on NumPy columns and count what they
do (rows each op sees, survivors per conjunct, probes that hit,
distinct build keys, groups); :func:`repro.codegen.price.price` turns
those counts into these events, describing *what the equivalent
compiled C code would have done to the memory system*. Event counts
(rows touched, selectivities, structure sizes, branch outcome
fractions, hash-table occupancies) are therefore **measured**, not
estimated — only latencies come from the machine model.

The event vocabulary deliberately mirrors the access-pattern taxonomy the
paper builds on (Pirk et al.'s sequential traversal / conditional read /
random access patterns).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Event:
    """Base class for all cost events."""


@dataclass(frozen=True)
class SeqRead(Event):
    """Sequential traversal read of ``n`` elements of ``width`` bytes."""

    n: int
    width: int
    array: str = ""
    #: Total bytes of the array; arrays that fit in cache (tile-sized
    #: intermediates such as ``cmp``/``idx``) are costed at cache latency.
    array_bytes: int = 0


@dataclass(frozen=True)
class SeqWrite(Event):
    """Sequential write of ``n`` elements of ``width`` bytes."""

    n: int
    width: int
    array: str = ""
    array_bytes: int = 0


@dataclass(frozen=True)
class CondRead(Event):
    """Conditional read: a forward traversal over ``n_range`` rows that
    touches only ``n_selected`` of them (via an if or a selection vector).

    This is the ``s_trav_cr`` pattern the paper identifies as the shared
    weakness of all existing strategies.
    """

    n_range: int
    n_selected: int
    width: int
    array: str = ""
    array_bytes: int = 0


@dataclass(frozen=True)
class RandomAccess(Event):
    """Uniform random accesses into a structure of ``struct_bytes`` bytes.

    ``hot_fraction`` of the accesses go to a working set of
    ``hot_bytes`` (e.g. the key-masking throwaway entry); the remainder
    are uniform over the whole structure.
    """

    n: int
    struct_bytes: int
    kind: str = "ht_lookup"
    hot_fraction: float = 0.0
    hot_bytes: int = 64
    #: Extra per-access compute (hash function, probe arithmetic).
    op_cycles: float = 0.0
    #: Set by ROF-style code that issues software prefetches far enough
    #: ahead to hide part of the access latency (paper §II-A3).
    prefetched: bool = False


@dataclass(frozen=True)
class Branch(Event):
    """``n`` executions of a conditional branch taken with probability
    ``taken_fraction`` (measured), assumed i.i.d. per the paper's uniform
    benchmark data. Costed with the two-bit-predictor steady state.
    """

    n: int
    taken_fraction: float
    site: str = ""


@dataclass(frozen=True)
class Compute(Event):
    """``n`` scalar operations of kind ``op``.

    When ``simd`` is true the cost is divided by the SIMD lane count for
    ``width``-byte elements — exactly how the prepass technique and value
    masking earn their speedups in the paper.
    """

    n: int
    op: str
    simd: bool = False
    width: int = 8


@dataclass(frozen=True)
class StatSample(Event):
    """Zero-cost telemetry sample riding the event stream.

    Instrumented operators publish measured statistics the adaptive
    loop wants but no access pattern implies — semijoin probe hit
    counts (``kind="join_match"``: ``n`` probes, ``value`` hits) and
    terminal group counts (``kind="group_cardinality"``: ``value``
    distinct groups). Priced at exactly zero cycles so telemetry never
    perturbs the simulated cost.
    """

    kind: str
    n: int = 0
    value: float = 0.0
    site: str = ""


@dataclass(frozen=True)
class TupleOverhead(Event):
    """Fixed per-tuple overhead cycles (scalar loop bookkeeping, or the
    Volcano interpreter's per-tuple dispatch for the sanity baseline)."""

    n: int
    cycles_each: float
    label: str = "loop"
