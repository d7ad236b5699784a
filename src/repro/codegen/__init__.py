"""Code generation: the staged lowering pipeline
(:func:`repro.codegen.pipeline.compile_pipeline` — passes, then
:mod:`~repro.codegen.lower`, then the generated
:mod:`~repro.codegen.vectorize` kernels). Both backends run those
kernels: the vectorized one serves them (row blocks, morsels, a native
tier), the instrumented one runs them counting what they do and
:mod:`~repro.codegen.price` turns the counts into priced events."""

from typing import List

from ..plan.passes import STRATEGIES


def available_strategies() -> List[str]:
    """Names of the strategies the pipeline compiles (sorted)."""
    return sorted(STRATEGIES)


__all__ = ["available_strategies"]
