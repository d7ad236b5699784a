"""Execution substrate: machine model, event costing, kernels, programs."""

from .branch import TwoBitPredictor, steady_state_mispredict_rate
from .cache import (
    CacheHierarchy,
    CacheStats,
    SetAssociativeCache,
    conditional_trace,
    random_trace,
    sequential_trace,
)
from .cancellation import CancelToken
from .costing import CostAccountant, CostReport, Tracer
from .executor import MorselExecutor
from .facade import Engine
from .metrics import RunMetrics, WorkerStats
from .plan_cache import CompileSpec, PlanCache, PlanCacheStats, plan_key
from .pool import MorselBatch, WorkerPool
from .events import (
    Branch,
    CondRead,
    Compute,
    Event,
    RandomAccess,
    SeqRead,
    SeqWrite,
    TupleOverhead,
)
from .hashtable import EMPTY, NULL_KEY, HashTable
from .machine import PAPER_MACHINE, MachineModel
from .program import (
    CompiledQuery,
    ParallelPlan,
    QueryResult,
    merge_partials,
    results_equal,
)
from .session import ExecutionKnobs, Session
from .shard import ShardGroup, ShardWorkerDied

__all__ = [
    "Branch",
    "CacheHierarchy",
    "CancelToken",
    "CompileSpec",
    "CacheStats",
    "CompiledQuery",
    "CondRead",
    "Compute",
    "CostAccountant",
    "CostReport",
    "EMPTY",
    "Engine",
    "Event",
    "ExecutionKnobs",
    "HashTable",
    "MachineModel",
    "MorselBatch",
    "MorselExecutor",
    "NULL_KEY",
    "PAPER_MACHINE",
    "ParallelPlan",
    "PlanCache",
    "PlanCacheStats",
    "QueryResult",
    "RandomAccess",
    "RunMetrics",
    "SeqRead",
    "SeqWrite",
    "Session",
    "ShardGroup",
    "ShardWorkerDied",
    "WorkerPool",
    "WorkerStats",
    "SetAssociativeCache",
    "Tracer",
    "TupleOverhead",
    "TwoBitPredictor",
    "conditional_trace",
    "merge_partials",
    "plan_key",
    "random_trace",
    "results_equal",
    "sequential_trace",
    "steady_state_mispredict_rate",
]
