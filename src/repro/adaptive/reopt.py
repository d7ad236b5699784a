"""Drift detection and re-optimization against measured statistics.

The SWOLE passes price pullups with estimates from a 64K-row prefix
sample (:data:`repro.plan.passes._SAMPLE_ROWS`); on clustered or
shifted data those estimates can be arbitrarily wrong, and a cached
plan keeps serving the stale decision forever. The re-optimizer closes
the loop: once enough instrumented observations accumulate for a
fingerprint, it compares the measured survival fraction against the
estimate the plan was priced with, and past a relative-drift threshold
it

1. registers a :class:`~repro.engine.costing.StatsOverride` carrying
   the measured selectivity (rounded, so repeated re-optimizations of
   the same workload produce byte-identical plans),
2. drops that fingerprint's plans from the cache — every strategy /
   machine / backend / encoding cell — via the targeted
   :meth:`~repro.engine.plan_cache.PlanCache.invalidate`, and
3. ticks ``adaptive_recompiles_total`` and sets the per-fingerprint
   drift gauge.

The next request recompiles through the normal singleflight path with
the override threaded into :func:`~repro.plan.passes.run_passes`, so
the pullup decisions are re-priced with production cardinalities.

Drift is measured against the *active override* when one exists
(falling back to the plan's compile-time estimate before the first
re-optimization). Comparing to the override rather than the original
estimate is what makes the loop stable: a fingerprint whose measured
selectivity settles re-optimizes once and then stays quiet instead of
re-invalidating on every observation window.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional

from ..engine.costing import StatsOverride
from ..errors import ReproError
from .feedback import FeedbackStore

#: Observed selectivities are rounded to this many decimals before
#: entering an override, so EWMA jitter cannot produce two different
#: "re-optimized" plans for the same settled workload.
OVERRIDE_DECIMALS = 6


class ReOptimizer:
    """Compares estimated against observed statistics; invalidates on
    drift.

    ``drift_threshold`` is relative: 0.5 means re-optimize when the
    measured survival fraction is more than 50% away from the value the
    current plan was priced with. ``min_observations`` gates on the
    selectivity EWMA's sample count so one unlucky explore request
    cannot trigger a recompile.
    """

    def __init__(
        self,
        store: FeedbackStore,
        *,
        drift_threshold: float = 0.5,
        min_observations: int = 5,
    ) -> None:
        if drift_threshold <= 0.0:
            raise ReproError("drift threshold must be positive")
        if min_observations < 1:
            raise ReproError("min_observations must be at least 1")
        self.store = store
        self.drift_threshold = drift_threshold
        self.min_observations = min_observations
        self._lock = threading.Lock()
        self._overrides: Dict[str, StatsOverride] = {}
        self._drift: Dict[str, float] = {}
        self.recompiles = 0

    def override_for(self, fingerprint: str) -> Optional[StatsOverride]:
        """The active measured-statistics override for a fingerprint
        (``None`` while its estimates are still trusted)."""
        with self._lock:
            return self._overrides.get(fingerprint)

    def apply_override(
        self, fingerprint: str, override: StatsOverride
    ) -> None:
        """Install an override directly (tests / manual tuning)."""
        with self._lock:
            self._overrides[fingerprint] = override

    def drift(self, fingerprint: str) -> Optional[float]:
        """Last computed relative drift for a fingerprint."""
        with self._lock:
            return self._drift.get(fingerprint)

    def maybe_reoptimize(
        self,
        fingerprint: str,
        estimated_stats: Optional[Mapping[str, float]],
        plan_cache,
        registry=None,
    ) -> bool:
        """Run one drift check; returns True when plans were invalidated.

        ``estimated_stats`` is the compiled plan's recorded estimate
        block (``CompiledQuery.notes["estimated_stats"]``); without
        one there is nothing to drift from.
        """
        if not estimated_stats:
            return False
        estimated = estimated_stats.get("survival")
        if estimated is None:
            return False
        measured = self.store.observed_selectivity(fingerprint)
        if measured is None:
            return False
        observed, samples = measured
        if samples < self.min_observations:
            return False
        # Measured join statistics ride along on the same override:
        # the recompile prices semijoin pullups with the observed
        # match fraction and sizes its hash tables from the observed
        # distinct group count, not just the sampled selectivity.
        match = self.store.observed_match_fraction(fingerprint)
        groups = self.store.observed_group_cardinality(fingerprint)
        with self._lock:
            active = self._overrides.get(fingerprint)
            baseline = (
                active.selectivity
                if active is not None and active.selectivity is not None
                else float(estimated)
            )
            drift = abs(observed - baseline) / max(abs(baseline), 1e-9)
            self._drift[fingerprint] = drift
            if drift <= self.drift_threshold:
                triggered = False
            else:
                self._overrides[fingerprint] = StatsOverride(
                    selectivity=round(observed, OVERRIDE_DECIMALS),
                    match_fraction=(
                        round(match[0], OVERRIDE_DECIMALS)
                        if match is not None
                        else None
                    ),
                    group_cardinality=(
                        max(int(round(groups[0])), 1)
                        if groups is not None
                        else None
                    ),
                )
                self.recompiles += 1
                triggered = True
        if registry is not None:
            registry.gauge(
                "adaptive_drift", fingerprint=fingerprint[:16]
            ).set(drift)
        if not triggered:
            return False
        plan_cache.invalidate(fingerprint)
        if registry is not None:
            registry.counter("adaptive_recompiles_total").inc()
        return True

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "recompiles": self.recompiles,
                "drift_threshold": self.drift_threshold,
                "min_observations": self.min_observations,
                "overrides": {
                    fingerprint: override.describe()
                    for fingerprint, override in self._overrides.items()
                },
                "drift": dict(self._drift),
            }


__all__ = ["OVERRIDE_DECIMALS", "ReOptimizer"]
