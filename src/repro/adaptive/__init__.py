"""Closed-loop re-optimization from production telemetry.

The static pipeline estimates, compiles, and caches; this package
watches what actually happens and feeds it back:

* :mod:`~repro.adaptive.feedback` — folds every execution's measured
  statistics (selectivities from the instrumented event stream, wall
  clock, simulated cycles, scan shape) into bounded per-fingerprint
  EWMA summaries;
* :mod:`~repro.adaptive.reopt` — detects drift between the estimates a
  cached plan was priced with and the measured values, and triggers a
  targeted invalidate + recompile with a measured-statistics override;
* :mod:`~repro.adaptive.chooser` — routes ``strategy="auto"`` requests
  through a deterministic explore/exploit loop over every strategy ×
  backend arm.

:class:`AdaptiveController` bundles the three behind the single object
the :class:`repro.Engine` facade holds; :class:`AdaptivePolicy` is its
frozen configuration knob.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Optional, Tuple, Union

from ..engine.costing import StatsOverride
from .chooser import ARM_CYCLE, DEFAULT_ARM_STRATEGY, StrategyChooser
from .feedback import (
    Arm,
    Ewma,
    FeedbackStore,
    FingerprintSummary,
    Observation,
    observation_from_run,
)
from .reopt import OVERRIDE_DECIMALS, ReOptimizer

#: Format version of the persisted feedback snapshot; bump on any
#: incompatible change to the snapshot/restore schema.
FEEDBACK_SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class AdaptivePolicy:
    """Tuning for the whole adaptive loop (all fields optional).

    alpha:
        EWMA smoothing factor for every folded statistic.
    max_fingerprints:
        Memory bound on the feedback store and chooser state.
    explore_every:
        Every Nth auto request explores the next strategy × backend
        arm; the rest exploit the measured-best one.
    drift_threshold:
        Relative estimated-vs-observed selectivity drift beyond which
        the re-optimizer invalidates and recompiles.
    min_observations:
        Selectivity samples required before drift can trigger.
    """

    alpha: float = 0.2
    max_fingerprints: int = 256
    explore_every: int = 8
    drift_threshold: float = 0.5
    min_observations: int = 5


class AdaptiveController:
    """The engine-facing bundle: store + chooser + re-optimizer.

    Construct one (optionally from an :class:`AdaptivePolicy`), hand it
    to ``Engine(adaptive=...)``; the engine calls :meth:`attach` with
    its plan cache and metrics registry, then :meth:`choose` on every
    ``strategy="auto"`` request and :meth:`observe` after every run.
    """

    def __init__(self, policy: Optional[AdaptivePolicy] = None) -> None:
        self.policy = policy if policy is not None else AdaptivePolicy()
        self.store = FeedbackStore(
            alpha=self.policy.alpha,
            max_fingerprints=self.policy.max_fingerprints,
        )
        self.chooser = StrategyChooser(
            self.store, explore_every=self.policy.explore_every
        )
        self.reopt = ReOptimizer(
            self.store,
            drift_threshold=self.policy.drift_threshold,
            min_observations=self.policy.min_observations,
        )
        self._lock = threading.Lock()
        self._plan_cache = None
        self._registry = None
        self.explorations = 0

    # -- engine wiring ---------------------------------------------------

    def attach(self, plan_cache, registry) -> None:
        """Bind the engine's plan cache and metrics registry (idempotent;
        the facade calls this from ``Engine.__init__``)."""
        self._plan_cache = plan_cache
        self._registry = registry

    def choose(
        self, fingerprint: str, default_backend: str
    ) -> Tuple[str, str]:
        """Route one ``strategy="auto"`` request to a (strategy,
        backend) arm, counting explorations."""
        strategy, backend, explored = self.chooser.choose(
            fingerprint, default_backend
        )
        if explored:
            with self._lock:
                self.explorations += 1
            if self._registry is not None:
                self._registry.counter(
                    "adaptive_explorations_total"
                ).inc()
        return strategy, backend

    def observe(
        self,
        fingerprint: str,
        strategy: str,
        backend: str,
        observation: Observation,
        estimated_stats: Optional[Mapping[str, float]] = None,
    ) -> bool:
        """Fold one completed run and run the drift check against the
        statistics its plan was priced with (``notes["estimated_stats"]``,
        which every compiled program records); returns True when the
        run triggered a re-optimization."""
        self.store.record(fingerprint, strategy, backend, observation)
        if self._plan_cache is None:
            return False
        return self.reopt.maybe_reoptimize(
            fingerprint,
            estimated_stats,
            self._plan_cache,
            self._registry,
        )

    def override_for(self, fingerprint: str) -> Optional[StatsOverride]:
        """Measured-statistics override the compiler should plan with."""
        return self.reopt.override_for(fingerprint)

    def min_parallel_rows(self) -> Optional[int]:
        """Measured serial-vs-parallel crossover for this host, once
        both modes have been sampled (else ``None``)."""
        return self.store.crossover_rows()

    # -- persistence -----------------------------------------------------

    def save_feedback(self, path: Union[str, Path]) -> Path:
        """Write the feedback store's state as a JSON snapshot.

        Atomic (write + rename) so a crash mid-save never leaves a
        truncated snapshot for the next engine to trip over. The
        chooser's explore-cycle position and the re-optimizer's live
        overrides are deliberately *not* persisted — a restarted engine
        re-derives both from the restored EWMAs within a few requests,
        and stale overrides against changed data would be worse than
        none.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        state = {
            "version": FEEDBACK_SNAPSHOT_VERSION,
            "feedback": self.store.snapshot(),
        }
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(state, indent=2, sort_keys=True))
        tmp.replace(path)
        return path

    def load_feedback(self, path: Union[str, Path]) -> int:
        """Restore a :meth:`save_feedback` snapshot into the store.

        Returns the number of fingerprints restored; ``0`` when the
        file is missing, unreadable, or from an incompatible snapshot
        version (all cold-start conditions, never errors)."""
        path = Path(path)
        try:
            state = json.loads(path.read_text())
        except (OSError, ValueError):
            return 0
        if (
            not isinstance(state, dict)
            or state.get("version") != FEEDBACK_SNAPSHOT_VERSION
        ):
            return 0
        feedback = state.get("feedback")
        if not isinstance(feedback, dict):
            return 0
        return self.store.restore(feedback)

    # -- introspection ---------------------------------------------------

    @property
    def recompiles(self) -> int:
        return self.reopt.recompiles

    def snapshot(self) -> dict:
        """JSON-safe state of the whole loop (registered as the
        ``adaptive`` stat source, so it shows up in the ``stats`` wire
        op and ``/metrics``)."""
        with self._lock:
            explorations = self.explorations
        return {
            "policy": {
                "alpha": self.policy.alpha,
                "max_fingerprints": self.policy.max_fingerprints,
                "explore_every": self.policy.explore_every,
                "drift_threshold": self.policy.drift_threshold,
                "min_observations": self.policy.min_observations,
            },
            "explorations": explorations,
            "feedback": self.store.snapshot(),
            "chooser": self.chooser.snapshot(),
            "reopt": self.reopt.snapshot(),
        }

    def explain_feedback(
        self, fingerprint: str, notes: Optional[Mapping] = None
    ) -> List[str]:
        """Render the ``== Feedback ==`` explain section for a
        fingerprint; empty before any observation (so explain output
        without feedback stays byte-identical to a static engine's).

        ``notes`` is the compiled plan's notes dict; when it carries
        ``pass_estimates`` the estimated total cycles are paired with
        the observed EWMA — the planner's prediction next to
        production's verdict.
        """
        summary = self.store.summary(fingerprint)
        if summary is None or summary.observations == 0:
            return []
        lines = [
            "== Feedback ==",
            f"observations: {summary.observations}",
            (
                "observed wall: "
                f"{summary.wall_seconds.value * 1e3:.3f} ms (ewma)"
            ),
        ]
        notes = notes or {}
        estimated_cycles = notes.get("estimated_cycles")
        if estimated_cycles is not None:
            lines.append(
                f"cycles: estimated {estimated_cycles:,.0f}"
                f" / observed {summary.total_cycles.value:,.0f} (ewma)"
            )
            for pass_name, cycles in notes.get("pass_estimates", []):
                lines.append(f"  {pass_name}: estimated {cycles:,.0f}")
        else:
            lines.append(
                f"cycles: observed {summary.total_cycles.value:,.0f}"
                " (ewma)"
            )
        estimated_stats = notes.get("estimated_stats") or {}
        estimated_survival = estimated_stats.get("survival")
        if summary.selectivity.count:
            observed = summary.selectivity.value
            if estimated_survival is not None:
                drift = abs(observed - estimated_survival) / max(
                    abs(estimated_survival), 1e-9
                )
                lines.append(
                    f"selectivity: estimated {estimated_survival:.4f}"
                    f" / observed {observed:.4f}"
                    f" (drift {drift * 100.0:.1f}%)"
                )
            else:
                lines.append(f"selectivity: observed {observed:.4f}")
        best = self.store.best_arm(fingerprint)
        if best is not None:
            lines.append(f"best arm: {best[0]}/{best[1]}")
        override = self.reopt.override_for(fingerprint)
        if override is not None:
            lines.append(f"active override: {override.describe()}")
        return lines


def resolve_adaptive(value) -> Optional[AdaptiveController]:
    """Coerce the ``Engine(adaptive=...)`` knob into a controller.

    ``None`` / ``False`` → disabled; ``True`` → default policy; an
    :class:`AdaptivePolicy` → controller with that policy; a ready
    :class:`AdaptiveController` passes through (sharable across
    engines in tests).
    """
    if value is None or value is False:
        return None
    if value is True:
        return AdaptiveController()
    if isinstance(value, AdaptivePolicy):
        return AdaptiveController(value)
    if isinstance(value, AdaptiveController):
        return value
    raise TypeError(
        "adaptive must be None, bool, AdaptivePolicy, or"
        f" AdaptiveController; got {type(value).__name__}"
    )


__all__ = [
    "ARM_CYCLE",
    "Arm",
    "FEEDBACK_SNAPSHOT_VERSION",
    "AdaptiveController",
    "AdaptivePolicy",
    "DEFAULT_ARM_STRATEGY",
    "Ewma",
    "FeedbackStore",
    "FingerprintSummary",
    "Observation",
    "OVERRIDE_DECIMALS",
    "ReOptimizer",
    "StatsOverride",
    "StrategyChooser",
    "observation_from_run",
    "resolve_adaptive",
]
