"""The unified query-engine facade: compile -> cache -> execute -> metrics.

:class:`Engine` is the single entry point. It owns the plan cache
(keyed compilation artifacts, LRU) and the morsel executor (parallel
scans + run metrics). Every query-taking
method accepts a :class:`~repro.plan.ops.LogicalPlan` operator tree —
build one with :class:`repro.PlanBuilder`, look a TPC-H plan up via
``repro.tpch.logical_plan``, or take a microbench query from
``repro.datagen.microbench`` — checked and fingerprinted once at the
door (:func:`~repro.engine.plan_cache.normalize_query`). There is one
query type and one compiler,
:func:`repro.codegen.pipeline.compile_pipeline`.

Usage::

    from repro import Engine
    from repro.datagen import microbench as mb

    db = mb.generate(mb.MicrobenchConfig(num_rows=1_000_000))
    engine = Engine(db, workers=4)
    result = engine.execute(mb.q1(13))          # SWOLE by default
    print(result.scalar(), result.report.metrics.describe())
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Optional

from ..errors import ReproError
from ..obs import MetricsRegistry, metrics_registry, span
from .cancellation import CancelToken
from .executor import MorselExecutor
from .machine import PAPER_MACHINE, MachineModel
from .plan_cache import CompileSpec, PlanCache, normalize_query, plan_key
from .pool import WorkerPool
from .program import CompiledQuery, QueryResult
from .session import ExecutionKnobs, Session
from .shard import ShardGroup, dataset_provenance, remote_plan

#: ``strategy="auto"`` resolves to the paper's planner-driven strategy
#: (SWOLE itself falls back to hybrid whenever a pullup would not pay).
AUTO_STRATEGY = "swole"

#: Execution backends a query can be compiled for. ``vectorized`` is
#: the serving default (generated NumPy kernels run a cache-sized row
#: block at a time, replaced by a C kernel once a program is hot);
#: ``instrumented`` runs the same kernels counting what they do, one
#: serial pass, and prices the counts — the authority for costing and
#: explain.
BACKENDS = ("instrumented", "vectorized")

#: LRU capacity of an engine's compiled-program cache.
PLAN_CACHE_SIZE = 64


class Engine:
    """A database bound to a machine model, a plan cache, and workers.

    Parameters (all keyword-only except the database):

    db:
        The :class:`~repro.storage.database.Database` to serve.
    machine:
        Simulated machine for planning *and* costing (pass the scaled
        model when the data was shrunk relative to the paper).
    workers:
        Default worker-thread count for partitionable programs. Morsels
        run on a persistent :class:`~repro.engine.pool.WorkerPool` the
        engine owns: threads start lazily on the first parallel query
        and are reused across queries. Only vectorized programs fan
        out; an instrumented run is one serial pass whatever the
        count.
    knobs:
        Default :class:`ExecutionKnobs` for sessions this engine spawns
        (copied: the engine never writes to the caller's object). Its
        ``min_parallel_rows`` is the thread fan-out floor; left unset,
        an adaptive engine seeds it from the host's measured
        serial-vs-parallel crossover.
    backend:
        Default execution backend for this engine's compilations:
        ``"vectorized"`` (default — generated NumPy kernels over
        cache-sized row blocks, with a native C tier for hot programs)
        or ``"instrumented"`` (the same kernels, counting, with the
        counts priced into simulated cycles; the costing authority). Every query-taking method also accepts
        a per-call ``backend=``.
    registry:
        The :class:`~repro.obs.MetricsRegistry` this engine reports
        into (default: the process-wide registry). The engine registers
        its plan cache and worker pool as stat sources, times
        compile/execute spans, bumps per-strategy access-pattern and
        branch event counters, and feeds the registry's slow-query log.
    encoding:
        The access-encoding knob: ``"auto"`` (default) lets the
        access-encoding pass serve each cost-chosen scan as physical
        codes — dictionary codes, null-suppressed ints, fixed-point
        decimals at their narrow stored width — with decode deferred
        to materialization; ``"off"`` serves every scan decoded.
        Answers are byte-identical either way (the equivalence sweep
        pins it); the knob exists for baseline comparisons and the
        compression bench. Part of the compile spec, so cached programs
        never leak across encoding modes.
    adaptive:
        Closed-loop re-optimization from production telemetry. ``None``
        / ``False`` (default) keeps the engine fully static. ``True``
        enables the loop with default policy; pass an
        :class:`~repro.adaptive.AdaptivePolicy` to tune it, or a ready
        :class:`~repro.adaptive.AdaptiveController` to share one loop
        across engines. With adaptivity on, every run's measured
        statistics feed the feedback store, drift past the policy
        threshold invalidates and recompiles the drifted plan with
        measured cardinalities, and ``strategy="auto"`` requests route
        through the per-fingerprint explore/exploit chooser instead of
        pinning SWOLE. When the dataset cache directory holds a
        feedback snapshot (``feedback.json`` under ``REPRO_CACHE_DIR``,
        written by :meth:`save_feedback`), a fresh controller warm
        starts from it, so measured selectivities survive restarts.
    shards:
        Default worker-*process* count (:mod:`repro.engine.shard`):
        each morsel's kernel runs in one of ``shards`` pre-forked
        workers mapping the same on-disk columns by dataset
        fingerprint, while the pool's threads wait on their pipes —
        same cursor, merge and metrics — so sharded results stay
        byte-identical to serial. Requires a database loaded
        through the dataset cache (it carries the fingerprint workers
        map by); raises :class:`~repro.errors.ReproError` otherwise.
        Workers fork lazily on the first sharded query — call
        :meth:`start_shards` to pre-fork (the server does). Scans
        below the fan-out floor run serial in-process, as they do on
        the thread tier.

    The engine is a context manager; ``with Engine(db) as engine:``
    shuts the pool down on exit; the pool's executor joins the threads
    of engines never explicitly closed at interpreter exit, and an
    ``atexit`` hook stops their shard workers. :meth:`shutdown` is
    idempotent.
    """

    #: The paper's 1024-row vector size. No compilation depends on it:
    #: :func:`~repro.engine.plan_cache.plan_key` takes and ignores it.
    tile = 1024

    def __init__(
        self,
        db,
        *,
        machine: MachineModel = PAPER_MACHINE,
        workers: int = 1,
        knobs: Optional[ExecutionKnobs] = None,
        registry: Optional[MetricsRegistry] = None,
        backend: Optional[str] = None,
        encoding: str = "auto",
        adaptive=None,
        shards: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ReproError("Engine needs at least one worker")
        if shards is not None:
            if shards < 1:
                raise ReproError("Engine needs at least one shard")
            dataset_provenance(db)
        if encoding not in ("auto", "off"):
            raise ReproError(
                f"unknown encoding mode {encoding!r}; have ['auto', 'off']"
            )
        self.db = db
        self.machine = machine
        self.workers = workers
        self.encoding = encoding
        self.knobs = replace(knobs) if knobs is not None else ExecutionKnobs()
        self.backend = self._resolve_backend(
            "vectorized" if backend is None else backend
        )
        self.shards = shards
        self._shard_group = None
        self._shard_lock = threading.Lock()
        self.plan_cache = PlanCache(capacity=PLAN_CACHE_SIZE)
        self.pool = WorkerPool(workers)
        self.registry = (
            registry if registry is not None else metrics_registry()
        )
        # The sources close over the stats/pool objects only — never
        # the database — so registering does not pin column data.
        self.registry.register_source(
            "plan_cache", self.plan_cache.stats.snapshot
        )
        self.registry.register_source("pool", self.pool.snapshot)
        # Lazy import: repro.adaptive imports engine modules, and
        # ``repro.engine.__init__`` imports this facade.
        from ..adaptive import resolve_adaptive

        self.adaptive = resolve_adaptive(adaptive)
        if self.adaptive is not None:
            self.adaptive.attach(self.plan_cache, self.registry)
            self.registry.register_source(
                "adaptive", self.adaptive.snapshot
            )
            # Warm start from the persisted snapshot when one exists.
            # Only a controller this engine just created loads — a
            # shared controller passed in already carries live state
            # the snapshot must not clobber.
            if adaptive is not self.adaptive:
                self.adaptive.load_feedback(self.feedback_path())

    # -- lifecycle -------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the worker pool's threads and any shard worker
        processes (idempotent). The engine remains usable — the pool
        restarts lazily on the next parallel query, and the shard
        group re-forks on the next sharded one."""
        self.pool.shutdown()
        with self._shard_lock:
            group, self._shard_group = self._shard_group, None
        if group is not None:
            group.stop()

    def start_shards(self, shards: Optional[int] = None):
        """Pre-fork the shard workers (the server calls this at boot so
        the first request never pays fork + dataset-map latency).
        Returns the :class:`~repro.engine.shard.ShardGroup`."""
        n = shards if shards is not None else self.shards
        if not n:
            raise ReproError(
                "no shard count configured; pass start_shards(n) or "
                "Engine(shards=n)"
            )
        return self._ensure_shard_group(n).start()

    def _ensure_shard_group(self, shards: int) -> ShardGroup:
        with self._shard_lock:
            group = self._shard_group
            if group is None:
                group = ShardGroup(
                    shards,
                    self.db,
                    machine=self.machine,
                    registry=self.registry,
                )
                self.registry.register_source("shards", group.snapshot)
                self._shard_group = group
            group.grow(shards)
        return group

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- sessions --------------------------------------------------------

    def session(self) -> Session:
        """A fresh session configured like this engine.

        An adaptive engine whose feedback store has measured this
        host's serial-vs-parallel crossover seeds the session's
        ``min_parallel_rows`` from the measurement — unless the knob
        was set explicitly, which always wins.
        """
        knobs = replace(self.knobs)
        if knobs.min_parallel_rows is None and self.adaptive is not None:
            measured = self.adaptive.min_parallel_rows()
            if measured is not None:
                knobs.min_parallel_rows = measured
        return Session(machine=self.machine, knobs=knobs)

    # -- compilation -----------------------------------------------------

    def compile(
        self, query, strategy: str = "auto", *,
        backend: Optional[str] = None,
    ) -> CompiledQuery:
        """Compile ``query`` (cache-aware) and return the program.

        ``query`` is a :class:`~repro.plan.ops.LogicalPlan` operator
        tree. ``strategy`` is one of
        :func:`repro.available_strategies`, or ``"auto"`` for the
        planner-driven SWOLE strategy. ``backend`` overrides the
        engine's default execution backend for this call.
        """
        spec = self._mint_spec(query, strategy, backend)
        return self._compile_cached(query, spec)[0]

    def _resolve_backend(self, backend: Optional[str]) -> str:
        resolved = backend if backend is not None else self.backend
        if resolved not in BACKENDS:
            raise ReproError(
                f"unknown backend {resolved!r}; have {list(BACKENDS)}"
            )
        return resolved

    def _mint_spec(
        self, query, strategy: str, backend: Optional[str]
    ) -> CompileSpec:
        """This request's :class:`CompileSpec`, minted once: every
        later layer — plan cache, compiler, shard workers — reads the
        compile configuration off it."""
        spec = plan_key(
            query,
            AUTO_STRATEGY if strategy == "auto" else strategy,
            self.machine,
            self.tile,
            self._resolve_backend(backend),
            0,
            self.encoding,
        )
        if self.adaptive is not None:
            # An adaptive engine recompiles a drifted plan with its
            # measured statistics; riding in the spec, the override
            # reaches the shard workers with everything else.
            override = self.adaptive.override_for(spec.fingerprint)
            if override is not None:
                spec = spec._replace(override=override)
        return spec

    def _compile_cached(self, query, spec: CompileSpec):
        """``(program, was_hit)`` for a minted spec."""

        def timed_compile() -> CompiledQuery:
            from ..codegen.pipeline import compile_pipeline

            with span(
                "compile", self.registry,
                strategy=spec.strategy, backend=spec.backend,
            ):
                return compile_pipeline(
                    normalize_query(query)[0], self.db, spec, self.registry
                )

        return self.plan_cache.get_or_compile(spec, timed_compile)

    def explain(
        self, query, strategy: str = "auto", *,
        backend: Optional[str] = None,
    ) -> str:
        """The staged lowering pipeline's rendering of ``query``.

        Shows the logical plan, every strategy pass with its cost-model
        estimates, the physical plan, and the execution backend the
        compiled program runs on.
        """
        compiled = self.compile(query, strategy, backend=backend)
        lines = [
            compiled.notes["explain"], "", "== Backend ==",
            compiled.notes["backend"],
        ]
        # ``== Feedback ==``: estimated vs observed cycles and
        # selectivity, the measured-best arm, and any active override.
        # Empty until the adaptive loop has observed the fingerprint,
        # so a static engine's explain output — including the committed
        # snapshots — is unchanged.
        if self.adaptive is not None:
            feedback = self.adaptive.explain_feedback(
                compiled.notes["fingerprint"], compiled.notes
            )
            if feedback:
                lines.extend([""] + feedback)
        return "\n".join(lines)

    # -- execution -------------------------------------------------------

    def execute(
        self,
        query,
        strategy: str = "auto",
        *,
        workers: Optional[int] = None,
        session: Optional[Session] = None,
        cancel: Optional[CancelToken] = None,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> QueryResult:
        """Compile (or fetch from the plan cache) and run ``query``.

        Partitionable (vectorized) programs run morsel-parallel on
        ``workers`` threads (default: the engine's worker count);
        answers are byte-identical to a serial run. The returned result
        carries
        :class:`~repro.engine.metrics.RunMetrics` on ``report.metrics``,
        including whether the plan came from the cache.

        ``shards`` overrides the engine's default shard-process count
        for this call (``0`` forces in-process execution). When the
        effective count is ``>= 1``, each morsel's kernel runs in a
        shard worker process instead of on its pool thread; answers are
        identical either way.

        ``cancel`` threads a
        :class:`~repro.engine.cancellation.CancelToken` through — a
        relative budget is ``cancel=CancelToken.after(seconds)``; the
        serving layer mints its token at admission so queue wait
        counts against the budget. A parallel run checks the token at
        every morsel claim and raises
        :class:`~repro.errors.QueryTimeout` naming the elapsed time;
        serial runs check only before starting (a running kernel cannot
        be interrupted).
        """
        n_shards = shards if shards is not None else (self.shards or 0)
        if strategy == "auto" and self.adaptive is not None:
            # Adaptive routing: auto means "the measured-best arm",
            # with deterministic periodic exploration keeping every
            # arm — and the instrumented selectivity telemetry —
            # sampled. A per-call ``backend=`` is honoured as the
            # exploit default but exploration may still try the other
            # backend; pass an explicit strategy to opt a call out.
            strategy, backend = self.adaptive.choose(
                normalize_query(query)[1], self._resolve_backend(backend)
            )
        spec = self._mint_spec(query, strategy, backend)
        fingerprint, resolved = spec.fingerprint, spec.strategy
        compiled, was_hit = self._compile_cached(query, spec)
        n_workers = workers if workers is not None else self.workers
        if session is None:
            session = self.session()
        # Threads or processes is only where a morsel's kernel runs;
        # one pool drains the cursor, and the executor scatters, merges
        # and measures either way.
        program, lanes = compiled, n_workers
        if n_shards >= 1:
            group = self._ensure_shard_group(n_shards)
            program = replace(compiled, parallel=remote_plan(group, compiled))
            lanes = group.shards
        result = MorselExecutor(
            workers=lanes, pool=self.pool, registry=self.registry
        ).execute(program, session, cancel=cancel)
        metrics = result.report.metrics
        metrics.plan_cache = "hit" if was_hit else "miss"
        self._record_run(fingerprint, resolved, spec.backend, metrics)
        if self.adaptive is not None:
            from ..adaptive import observation_from_run

            self.adaptive.observe(
                fingerprint,
                resolved,
                spec.backend,
                observation_from_run(result.report, metrics),
                estimated_stats=compiled.notes.get("estimated_stats"),
            )
        return result

    def _record_run(
        self, fingerprint: str, strategy: str, backend: str, metrics
    ) -> None:
        """Telemetry for one completed execution: the execute span, the
        per-strategy branch / access-pattern event counters the SWOLE
        heuristics reason about, and — past the threshold — a
        slow-query log entry keyed by the plan fingerprint."""
        reg = self.registry
        reg.histogram(
            "span_seconds", stage="execute", strategy=strategy,
            backend=backend,
        ).observe(metrics.wall_seconds)
        reg.counter("queries_total", strategy=strategy, backend=backend).inc()
        reg.counter(
            "plan_cache_lookups_total",
            strategy=strategy,
            outcome=metrics.plan_cache,
        ).inc()
        for kind, count in metrics.event_counts.items():
            reg.counter(
                "engine_events_total", strategy=strategy, kind=kind
            ).inc(count)
        reg.slow_log.record(
            fingerprint=fingerprint,
            strategy=strategy,
            wall_seconds=metrics.wall_seconds,
            wall_nanos=int(metrics.wall_seconds * 1e9),
            backend=backend,
            plan_cache=metrics.plan_cache,
            workers=metrics.workers,
            morsels=metrics.morsels,
            parallel=metrics.parallel,
            total_cycles=metrics.total_cycles,
            event_counts=dict(metrics.event_counts),
        )

    # -- feedback persistence --------------------------------------------

    @staticmethod
    def feedback_path():
        """Where this host's feedback snapshot lives: ``feedback.json``
        alongside the dataset cache (``$REPRO_CACHE_DIR`` or the
        default cache directory)."""
        from ..datagen.cache import default_cache_dir

        return default_cache_dir() / "feedback.json"

    def save_feedback(self) -> Optional[str]:
        """Persist the adaptive feedback store next to the dataset
        cache; returns the written path, or ``None`` on a static
        engine. Saving is explicit (the server calls it at shutdown) —
        the engine never writes the snapshot behind the caller's back,
        so tests and one-shot scripts leave no warm state behind."""
        if self.adaptive is None:
            return None
        return str(self.adaptive.save_feedback(self.feedback_path()))

    # -- cache management ------------------------------------------------

    @property
    def cache_stats(self):
        """Hit/miss/eviction counters of the plan cache."""
        return self.plan_cache.stats

    def invalidate(self) -> None:
        """Drop all cached plans (call after mutating the database)."""
        self.plan_cache.invalidate()
