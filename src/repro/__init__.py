"""SWOLE: access-aware code generation with predicate pullups.

Reproduction of Crotty, Galakatos & Kraska (ICDE 2020). See README.md for
the public API tour and DESIGN.md for the architecture.

The unified entry point is :class:`Engine` — compile (with plan caching),
execute (morsel-parallel), inspect run metrics::

    from repro import Engine
    from repro.datagen import microbench as mb

    db = mb.generate(mb.MicrobenchConfig(num_rows=1_000_000))
    engine = Engine(db, workers=4)
    result = engine.execute(mb.q1(13))
    print(result.scalar(), result.metrics.describe())

Operator-tree plans are the primary query API: build one fluently with
:class:`PlanBuilder` (or look up a TPC-H plan via
``repro.tpch.logical_plan``) and hand it to ``Engine.execute`` /
``Engine.explain`` — or to a remote query server, which carries the
same plan over the wire as structural JSON plus its IR fingerprint
(:mod:`repro.plan.serde`). The microbench queries (``mb.q1`` ..
``mb.q5``) are operator trees too: there is one query type and one
compiler.

``Engine.explain(query, strategy)`` renders the staged lowering pipeline
(logical plan -> passes -> physical plan) for any query. For
forced-technique ablations the stages are public:
``repro.plan.passes.run_passes`` -> edit the returned ``Decisions`` ->
``repro.codegen.lower.lower_plan`` ->
``repro.codegen.pipeline.instrumented_run`` (the generated kernels,
counting what they do, with the counts priced into simulated cycles).
"""

__version__ = "2.9.0"

from .codegen import available_strategies
from .engine import (
    Engine,
    ExecutionKnobs,
    MachineModel,
    MorselExecutor,
    PAPER_MACHINE,
    PlanCache,
    RunMetrics,
    Session,
    WorkerPool,
)
from .errors import ReproError
from .plan import (
    AggSpec,
    Col,
    Const,
    LogicalPlan,
    PlanBuilder,
)
from .storage import Database

__all__ = [
    "AggSpec",
    "Col",
    "Const",
    "Database",
    "Engine",
    "ExecutionKnobs",
    "LogicalPlan",
    "MachineModel",
    "MorselExecutor",
    "PAPER_MACHINE",
    "PlanBuilder",
    "PlanCache",
    "ReproError",
    "RunMetrics",
    "Session",
    "WorkerPool",
    "__version__",
    "available_strategies",
]
