"""Code generation: the staged lowering pipeline
(:func:`repro.codegen.pipeline.compile_pipeline` — passes, then
:mod:`~repro.codegen.lower`, then the instrumented
:mod:`~repro.codegen.physexec` interpreter or the generated
:mod:`~repro.codegen.vectorize` kernels)."""

from typing import List

from ..plan.passes import STRATEGIES


def available_strategies() -> List[str]:
    """Names of the strategies the pipeline compiles (sorted)."""
    return sorted(STRATEGIES)


__all__ = ["available_strategies"]
