"""Cooperative cancellation and deadline propagation.

Serving queries under load needs a way to *stop* work that is no longer
worth finishing: a request whose client-facing deadline has passed, or
one the caller withdrew. Python threads cannot be interrupted, so the
mechanism is cooperative — a :class:`CancelToken` is threaded from the
service layer through :meth:`repro.Engine.execute` into the morsel
batch, and the batch's shared cursor checks it before handing out each
morsel. A timed-out parallel query therefore stops within one morsel's
worth of work and surfaces as :class:`~repro.errors.QueryTimeout`
naming the elapsed time.

Tokens are cheap value objects; one is created per request (the
:class:`~repro.server.service.QueryService` mints one at admission so
queue wait counts against the deadline, exactly as a client perceives
it).
"""

from __future__ import annotations

import time
from typing import Optional

from ..errors import QueryCancelled, QueryTimeout


class CancelToken:
    """A deadline plus an explicit cancel flag, checked cooperatively.

    Parameters
    ----------
    deadline:
        Absolute :func:`time.monotonic` instant after which the token
        counts as expired, or ``None`` for no deadline (explicit
        :meth:`cancel` remains possible).

    The token records its creation instant so expiry errors can name
    the elapsed time; use :meth:`after` to build one from a relative
    budget in seconds.
    """

    __slots__ = ("deadline", "created_at", "_cancelled")

    def __init__(self, deadline: Optional[float] = None) -> None:
        self.deadline = deadline
        self.created_at = time.monotonic()
        self._cancelled = False

    @classmethod
    def after(cls, seconds: float) -> "CancelToken":
        """A token that expires ``seconds`` from now."""
        if seconds <= 0:
            raise QueryTimeout(
                f"deadline budget must be positive, got {seconds!r}",
                elapsed=0.0,
                deadline=seconds,
            )
        token = cls(time.monotonic() + seconds)
        return token

    # -- state -----------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called (deadline expiry excluded)."""
        return self._cancelled

    def cancel(self) -> None:
        """Flip the explicit cancel flag (idempotent, thread-safe: a
        single attribute store)."""
        self._cancelled = True

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the deadline (if any) has passed."""
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline

    def stop_requested(self, now: Optional[float] = None) -> bool:
        """Cancelled explicitly or expired — the cooperative check."""
        return self._cancelled or self.expired(now)

    # -- accounting ------------------------------------------------------

    def elapsed(self, now: Optional[float] = None) -> float:
        """Seconds since the token was created."""
        return (now if now is not None else time.monotonic()) - self.created_at

    def budget(self) -> Optional[float]:
        """The relative deadline budget in seconds (``None`` if none)."""
        if self.deadline is None:
            return None
        return self.deadline - self.created_at

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds left before expiry (negative once past; ``None`` when
        the token has no deadline)."""
        if self.deadline is None:
            return None
        return self.deadline - (now if now is not None else time.monotonic())

    # -- raising ---------------------------------------------------------

    def stop_error(self, label: str, slots: list):
        """The error a morsel cursor records when this token stopped it
        (call once :meth:`stop_requested` is true). ``slots`` are the
        cursor's per-morsel results, ``None`` where unfinished."""
        done = sum(1 for slot in slots if slot is not None)
        progress = f"after {done}/{len(slots)} morsels"
        if self._cancelled:
            return QueryCancelled(
                f"{label} cancelled {progress} "
                f"({self.elapsed():.3f}s elapsed)"
            )
        return QueryTimeout(
            f"{label} exceeded its {self.budget():.3f}s deadline "
            f"{progress} ({self.elapsed():.3f}s elapsed)",
            elapsed=self.elapsed(),
            deadline=self.budget(),
        )

    def check(self, label: str = "query") -> None:
        """Raise :class:`QueryTimeout` / :class:`QueryCancelled` if the
        token asks for a stop; no-op otherwise."""
        if self._cancelled:
            raise QueryCancelled(
                f"{label} was cancelled after {self.elapsed():.3f}s"
            )
        now = time.monotonic()
        if self.expired(now):
            raise QueryTimeout(
                f"{label} exceeded its {self.budget():.3f}s deadline "
                f"({self.elapsed(now):.3f}s elapsed)",
                elapsed=self.elapsed(now),
                deadline=self.budget(),
            )
