"""Benchmark-side tracing: spans around calls into each layer.

Spans are recorded by the ledger, never inside ``src/``. A traced op
produces a small forest sharing one op id:

* a **measured** span is a call the probe timed for real — its
  ``start_ns``/``end_ns`` are ``time.perf_counter_ns`` readings;
* a **replayed** child is a layer call made again, after its parent
  returned, with the same inputs through the layer's public function;
* a **reported** child is a duration the parent call itself returned
  (``RunMetrics.wall_seconds``: the executor's own clock around the
  kernel), so it is in situ — the kernel ran inside the parent, in the
  allocator and cache state the parent found.

Only the duration of a child is real; children are laid end to end
from their parent's start (``source`` says which kind) so the tree
reads like one nested call.

A layer's *self time* is its span's duration minus the part of that
interval its children cover (overlapping children count once; a child
sticking out past the parent is clipped). When replayed children add
up to more than their parent, the overshoot is reported as
``trace.reconcile_gap_max`` instead of being hidden in a negative
self time.

Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional


@dataclass
class Span:
    id: int
    op: int
    name: str
    parent: Optional[int]
    start_ns: int
    end_ns: int
    #: "measured", "replayed" or "reported" (see the module docstring).
    source: str = "measured"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "op": self.op,
            "name": self.name,
            "parent": self.parent,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "source": self.source,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


def covered_ns(parent: Span, children: Iterable[Span]) -> int:
    """Length of the part of ``parent``'s interval its children cover."""
    clipped = sorted(
        (max(c.start_ns, parent.start_ns), min(c.end_ns, parent.end_ns))
        for c in children
    )
    total = 0
    reach = parent.start_ns
    for start, end in clipped:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_ns(parent: Span, children: Iterable[Span]) -> int:
    return parent.duration_ns - covered_ns(parent, children)


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: span id -> where its next replayed child starts
        self._cursor: Dict[int, int] = {}

    def _add(self, span: Span) -> int:
        self.spans.append(span)
        self._cursor[span.id] = span.start_ns
        return span.id

    def measured(
        self, name: str, op: int, start_ns: int, end_ns: int, **attrs: Any
    ) -> int:
        """Record a top-level span with its real clock readings."""
        return self._add(
            Span(len(self.spans), op, name, None, start_ns, end_ns,
                 attrs=attrs)
        )

    def child(
        self,
        parent: int,
        name: str,
        duration_ns: int,
        *,
        source: str = "replayed",
        **attrs: Any,
    ) -> int:
        """Record a replayed or reported child of ``parent``: placed
        at the parent's cursor, which then advances."""
        start = self._cursor[parent]
        self._cursor[parent] = start + duration_ns
        return self._add(
            Span(
                len(self.spans),
                self.spans[parent].op,
                name,
                parent,
                start,
                start + duration_ns,
                source=source,
                attrs=attrs,
            )
        )

    # -- reading ---------------------------------------------------------

    def children(self) -> Dict[int, List[Span]]:
        by_parent: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                by_parent.setdefault(span.parent, []).append(span)
        return by_parent

    def durations(self) -> Dict[str, List[int]]:
        """Span durations by name, in recording order."""
        out: Dict[str, List[int]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span.duration_ns)
        return out

    def self_times(self) -> Dict[str, List[int]]:
        """Self time of every span that has children, by name."""
        by_parent = self.children()
        out: Dict[str, List[int]] = {}
        for span in self.spans:
            kids = by_parent.get(span.id)
            if kids:
                out.setdefault(span.name, []).append(self_ns(span, kids))
        return out

    def child_load(self) -> Dict[str, List[float]]:
        """Per parent span: sum of child durations / parent duration.
        At most 1.0 when the children fit; the excess over 1.0 is what
        the replay failed to reconcile."""
        by_parent = self.children()
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            kids = by_parent.get(span.id)
            if kids and span.duration_ns > 0:
                load = sum(k.duration_ns for k in kids) / span.duration_ns
                out.setdefault(span.name, []).append(load)
        return out

    def to_list(self) -> List[dict]:
        return [span.to_dict() for span in self.spans]
