"""The native tier around the kernels: builder, safety checks, faults.

``tests/test_backend_equivalence.py`` pins what the C kernels *answer*;
this file pins everything else about :mod:`repro.codegen.native`:

* the ski-rental hand-off (no build before a program has earned it,
  ``numpy -> building -> native`` once it has, the tier visible under
  ``stats`` and the C text under ``notes["native_source"]``);
* what the emitter declines, with the recorded reason, and that no
  column or table name reaches the C text;
* the per-call checks (layout, bounds) that send one call back to the
  NumPy kernel instead of handing C a pointer it should not have;
* the fault drills: compiler absent, compiler exits 1, compiler hangs,
  a truncated ``.so`` in the cache, two processes racing to build one
  key, a program invalidated while its build is in flight. Each ends
  with correct answers from NumPy, at most one ``ErrorLog`` entry, the
  ``native_builds_total`` outcome counted, bounded time, and no second
  attempt for that source in the process.
"""

import os
import stat
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import Engine
from repro.codegen import native
from repro.datagen import microbench as mb
from repro.obs import MetricsRegistry
from repro.plan.builder import PlanBuilder
from repro.plan.expressions import Case, Col, Const
from repro.plan.ops import AggSpec
from repro.storage.column import Column, LogicalType
from repro.storage.database import Database
from repro.storage.table import Table

from .conftest import requires_cc
from .conftest import vectorized_program as _program

REAL_CC = native.find_compiler()


@pytest.fixture()
def builder(monkeypatch):
    """A fresh, parked builder of this test's own: no remembered
    outcomes, no observed builds."""
    fresh = native.NativeBuilder()
    fresh.parked = True
    monkeypatch.setattr(native, "_BUILDER", fresh)
    return fresh


@pytest.fixture()
def registry():
    return MetricsRegistry()


def _db(cache_dir, rows=2000):
    """One table with an unmistakable name and column names, tagged
    with a cache directory as a cache-loaded database is."""
    rng = np.random.default_rng(3)
    db = Database()
    db.add_table(
        Table(
            name="secret_table",
            columns=(
                Column(
                    "secret_filter",
                    LogicalType.INT32,
                    rng.integers(0, 100, rows),
                ),
                Column(
                    "secret_key", LogicalType.INT8, rng.integers(0, 6, rows)
                ),
                Column(
                    "secret_value",
                    LogicalType.INT64,
                    rng.integers(0, 10**6, rows),
                ),
            ),
        )
    )
    db.dataset_cache_dir = str(cache_dir)
    return db


def _plan(cutoff=50, grouped=False, expr=None):
    aggregate = AggSpec(
        "sum",
        expr if expr is not None else Col("secret_value") * Const(3),
        name="total",
    )
    stream = PlanBuilder.scan("secret_table").filter(
        Col("secret_filter") < Const(cutoff)
    )
    return (
        stream.group_agg(aggregate, key="secret_key")
        if grouped
        else stream.group_agg(aggregate)
    ).build(f"native-{cutoff}-{grouped}")


def _builds(registry):
    """``native_builds_total`` by outcome."""
    prefix = "native_builds_total{outcome="
    return {
        name[len(prefix):-1]: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith(prefix)
    }


def _errors(registry):
    return [
        entry
        for entry in registry.error_log.entries()
        if entry["source"] == "native.build"
    ]


def _wait_for(condition, seconds=20.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def _fake_compiler(directory, body):
    """A ``cc`` stand-in: answers ``--version``, then runs ``body``."""
    path = Path(directory) / "fakecc"
    path.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "--version" ]; then echo "fakecc 1.0"; exit 0; fi\n'
        f"{body}\n"
    )
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestImportSurface:
    def test_import_repro_does_not_load_the_native_tier(self):
        # The compile path imports it on first use; ``import repro``
        # alone must not (set-up time, and hosts with no compiler).
        code = (
            "import sys, repro\n"
            "loaded = [m for m in ('repro.codegen.native', "
            "'numpy.ctypeslib') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            check=True, timeout=60,
        )


class TestSkiRental:
    def test_no_build_before_a_program_has_earned_it(
        self, builder, tmp_path
    ):
        builder.parked = False
        db = _db(tmp_path)
        with Engine(db, registry=MetricsRegistry()) as engine:
            for _ in range(20):  # microseconds each: far under 50 ms
                engine.execute(_plan())
            program = engine.compile(_plan()).program
        assert program.tier == "numpy"
        assert builder._thread is None  # nothing was ever handed over
        assert not (tmp_path / "native").exists()

    @requires_cc
    def test_a_hot_program_goes_native_behind_run_final(
        self, builder, monkeypatch, tmp_path, registry
    ):
        builder.parked = False
        monkeypatch.setattr(native, "BUILD_SEED_SECONDS", 1e-4)
        db = _db(tmp_path, rows=50_000)
        plan = _plan(grouped=True)
        with Engine(db, registry=registry) as engine:
            want = engine.execute(plan, backend="instrumented").value
            compiled = engine.compile(plan)
            program = compiled.program
            assert program.tier == "numpy"
            assert "native_source" not in compiled.notes

            def served_natively():
                got = engine.execute(plan).value
                assert np.array_equal(got["keys"], want["keys"])
                assert np.array_equal(got["aggs"], want["aggs"])
                return program.tier == "native"

            _wait_for(served_natively)
            assert "int64_t kernel(" in compiled.notes["native_source"]
            stats = registry.snapshot()
        assert _builds(registry) == {"built": 1}
        assert f"{program.label}: native" in stats["sources"]["native"][
            "programs"
        ]
        # One observed build replaces the seed as the estimate.
        assert builder.snapshot()["builds"] == 1
        assert builder.estimate != native.BUILD_SEED_SECONDS
        kept = sorted(p.suffix for p in (tmp_path / "native").iterdir())
        assert kept == [".c", ".log", ".so"]

    @requires_cc
    def test_threads_running_across_the_swap(
        self, builder, monkeypatch, tmp_path, registry
    ):
        """More threads than cores call ``run_final`` while the program
        earns its build, is built and is swapped: every answer is the
        NumPy one, the program is handed over once, and no per-call
        fallback count is lost."""
        monkeypatch.setattr(native, "BUILD_SEED_SECONDS", 1e-3)
        program = _program(
            _plan(grouped=True), _db(tmp_path, rows=20_000), registry=registry
        )
        view = program.data[-1]
        want = program.run_final(view, {}, 0)
        strided = {
            name: np.repeat(values, 2)[::2] for name, values in view.items()
        }
        threads, declined_calls, wrong = 8, 25, []
        deadline = time.monotonic() + 30.0

        def hammer():
            while time.monotonic() < deadline:
                got = program.run_final(view, {}, 0)
                if not (
                    np.array_equal(got["keys"], want["keys"])
                    and np.array_equal(got["aggs"], want["aggs"])
                ):
                    wrong.append(got)
                if program.tier == "native":
                    break
            for _ in range(declined_calls):
                program.run_final(strided, {}, 0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            builder.parked = False
            workers = [
                threading.Thread(target=hammer) for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []
        assert program.tier == "native"
        assert _builds(registry) == {"built": 1}
        assert program.native.fallbacks == {
            "layout": threads * declined_calls
        }

    @requires_cc
    def test_second_process_finds_the_kernel_in_the_cache(
        self, builder, monkeypatch, tmp_path, registry
    ):
        db = _db(tmp_path)
        assert _program(_plan(), db, registry=registry).build_now() == "native"
        # A new process is a builder with no memory of the source.
        monkeypatch.setattr(native, "_BUILDER", native.NativeBuilder())
        assert _program(_plan(), db, registry=registry).build_now() == "native"
        assert _builds(registry) == {"built": 1, "cached": 1}


class TestEmitter:
    @requires_cc
    def test_no_name_reaches_the_c_text(self, builder, tmp_path):
        for grouped in (False, True):
            program = _program(_plan(grouped=grouped), _db(tmp_path))
            assert program.build_now() == "native"
            text = program.notes["native_source"]
            assert "secret" not in text and "total" not in text
            assert "c0[i]" in text

    @pytest.mark.parametrize(
        "expr, reason",
        [
            (Col("secret_value") / Const(3), "Arith div"),
            (
                Case(
                    [(Col("secret_key") < Const(3), Col("secret_value"))],
                    Const(0),
                ),
                "bound expression Case",
            ),
        ],
        ids=("div", "case"),
    )
    def test_declines_record_the_reason(
        self, builder, tmp_path, registry, expr, reason
    ):
        db = _db(tmp_path)
        program = _program(_plan(expr=expr), db, registry=registry)
        before = program.execute()
        assert program.build_now() == f"declined: {reason}"
        assert program.native is None
        assert program.execute() == before
        assert _builds(registry) == {"declined": 1}
        assert _errors(registry) == []  # a decline is not a failure
        assert not (tmp_path / "native").exists()

    def test_literals_are_int64_or_refused(self):
        assert native._signed(-5) == "INT64_C(-5)"
        assert native._unsigned(-1) == "UINT64_C(18446744073709551615)"
        assert "9223372036854775807" in native._signed(-(2**63))
        for literal in (native._signed, native._unsigned):
            for value in (2**63, -(2**63) - 1, 2**70):
                with pytest.raises(native.NativeDecline, match="int64"):
                    literal(value)

    def test_join_probes_it_does_not_cover_decline(self, builder, micro_db):
        for query, strategy, reason in (
            (mb.q4(50, 50), "hybrid", "op HashSemiProbe"),
            (mb.q5(30), "hybrid", "op GroupJoinAgg"),
        ):
            with Engine(micro_db, registry=MetricsRegistry()) as engine:
                program = engine.compile(query, strategy).program
                assert program.build_now() == f"declined: {reason}"


@requires_cc
class TestCallChecks:
    """A pointer is only taken from an array that is what the source
    was specialised on; anything else is that call's NumPy kernel."""

    def test_other_layout_or_dtype_takes_the_numpy_kernel(
        self, builder, tmp_path
    ):
        program = _program(_plan(), _db(tmp_path))
        assert program.build_now() == "native"
        view = program.data[-1]
        want = program.run_final(view, {}, 0)
        assert program.native.fallbacks == {}
        strided = {
            name: np.repeat(values, 2)[::2] for name, values in view.items()
        }
        assert not strided["secret_value"].flags.c_contiguous
        widened = {
            name: values.astype(np.int64) for name, values in view.items()
        }
        for other in (strided, widened):
            assert program.native(other, {}, 0) is None
            assert program.run_final(other, {}, 0) == want
        assert program.native.fallbacks == {"layout": 4}

    def test_a_gather_that_could_leave_its_array_is_an_index_error(
        self, builder
    ):
        db = mb.generate(
            mb.MicrobenchConfig(num_rows=5000, s_rows=50, c_cardinality=8)
        )
        with Engine(db, registry=MetricsRegistry()) as engine:
            program = engine.compile(mb.q4(50, 50), "swole").program
        assert program.build_now() == "native"
        state = program.run_setup()
        view = program.data[-1]
        want = program.run_final(view, state, 0)
        assert program.native.fallbacks == {}
        # The same state with the bitmap cut short: offsets past its
        # end are NumPy's IndexError, never a read past the buffer.
        (name,) = state
        short = {name: dict(state[name], mask=state[name]["mask"][:10])}
        with pytest.raises(IndexError):
            program.run_final(view, short, 0)
        assert program.native.fallbacks == {"bounds": 1}
        assert program.run_final(view, state, 0) == want


class TestFaultDrills:
    """Every way a build can go wrong ends on the NumPy kernel."""

    def _drill(self, program, registry, outcome):
        """Build, expect ``failed``; answers unchanged; one error
        entry; the outcome counted; the same source is not retried."""
        want = program.execute()
        started = time.monotonic()
        tier = program.build_now()
        assert time.monotonic() - started < 10.0
        assert tier.startswith("failed: "), tier
        assert program.native is None
        assert program.execute() == want
        (entry,) = _errors(registry)
        assert entry["message"].startswith(outcome)
        assert _builds(registry) == {outcome: 1}
        return tier, entry

    def _no_second_attempt(self, plan, db, registry, tier, outcome):
        again = _program(plan, db, registry=registry)
        assert again.build_now() == tier
        assert len(_errors(registry)) == 1
        assert _builds(registry) == {outcome: 1, "reused": 1}

    def test_compiler_absent(self, builder, monkeypatch, tmp_path, registry):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        db = _db(tmp_path)
        program = _program(_plan(), db, registry=registry)
        tier, _ = self._drill(program, registry, "no_compiler")
        assert tier == "failed: no C compiler on PATH"
        self._no_second_attempt(_plan(), db, registry, tier, "no_compiler")
        assert not (tmp_path / "native").exists()

    def test_compiler_exits_1(
        self, builder, monkeypatch, tmp_path, registry
    ):
        fake = _fake_compiler(tmp_path, 'echo "kernel.c:1: boom"; exit 1')
        monkeypatch.setattr(native, "find_compiler", lambda: fake)
        db = _db(tmp_path / "cache")
        program = _program(_plan(), db, registry=registry)
        tier, entry = self._drill(program, registry, "compile_failed")
        log = Path(entry["log"])
        assert tier == f"failed: {log}"
        assert "boom" in log.read_text()  # the log is kept
        assert log.with_suffix(".c").exists()
        assert not log.with_suffix(".so").exists()
        self._no_second_attempt(
            _plan(), db, registry, tier, "compile_failed"
        )

    def test_compiler_hangs_past_the_deadline(
        self, builder, monkeypatch, tmp_path, registry
    ):
        fake = _fake_compiler(tmp_path, "exec sleep 60")
        monkeypatch.setattr(native, "find_compiler", lambda: fake)
        monkeypatch.setattr(native, "BUILD_DEADLINE_SECONDS", 0.3)
        db = _db(tmp_path / "cache")
        program = _program(_plan(), db, registry=registry)
        tier, entry = self._drill(program, registry, "timeout")
        assert "killed after 0.3 s" in tier
        assert Path(entry["log"]).exists()
        self._no_second_attempt(_plan(), db, registry, tier, "timeout")
        # Nothing half-built is left where a later process would look.
        leftovers = [
            p.name for p in (tmp_path / "cache" / "native").iterdir()
            if p.suffix not in (".c", ".log")
        ]
        assert leftovers == []

    @requires_cc
    @pytest.mark.parametrize("damage", ("truncated", "foreign"))
    def test_bad_so_in_the_cache(
        self, builder, monkeypatch, tmp_path, registry, damage
    ):
        # A compiler stand-in leaves a bad file under the kernel's key
        # ($5 is the -o target): the head of an ELF, or a real shared
        # object that is not one of ours.
        (tmp_path / "other.c").write_text("int other(void) { return 1; }\n")
        fake = _fake_compiler(
            tmp_path,
            'head -c 200 /bin/sh > "$5"'
            if damage == "truncated"
            else f'exec "{REAL_CC}" -shared -fPIC -o "$5" '
            f'"{tmp_path / "other.c"}"',
        )
        monkeypatch.setattr(native, "find_compiler", lambda: fake)
        db = _db(tmp_path / "cache")
        _program(_plan(), db).build_now()
        (library,) = (tmp_path / "cache" / "native").glob("*.so")
        # The drill: a process with no memory of the source finds that
        # file in the cache, fails to load it, and does not rebuild.
        later = native.NativeBuilder()
        monkeypatch.setattr(native, "_BUILDER", later)
        program = _program(_plan(), db, registry=registry)
        tier, entry = self._drill(program, registry, "unloadable")
        assert str(library) in tier and entry["library"] == str(library)
        assert later.snapshot()["builds"] == 0
        self._no_second_attempt(_plan(), db, registry, tier, "unloadable")

    @requires_cc
    def test_two_processes_race_to_build_one_key(self, tmp_path):
        script = textwrap.dedent(
            """
            import sys, time
            sys.path.insert(0, sys.argv[1])
            from tests.test_native import _db, _plan, _program
            program = _program(_plan(grouped=True), _db(sys.argv[2]))
            want = program.execute()
            while time.time() < float(sys.argv[3]):  # start together
                pass
            assert program.build_now() == "native"
            got = program.execute()
            assert (got["keys"] == want["keys"]).all()
            assert (got["aggs"] == want["aggs"]).all()
            """
        )
        root = str(Path(__file__).resolve().parent.parent)
        src = str(Path(repro.__file__).resolve().parent.parent)
        go = str(time.time() + 1.5)
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", script, root, str(tmp_path), go],
                env=dict(os.environ, PYTHONPATH=src),
            )
            for _ in range(2)
        ]
        assert [racer.wait(timeout=60) for racer in racers] == [0, 0]
        kept = sorted(p.suffix for p in (tmp_path / "native").iterdir())
        assert kept == [".c", ".log", ".so"]  # one key, no temp left

    @requires_cc
    def test_program_invalidated_while_its_build_is_in_flight(
        self, builder, monkeypatch, tmp_path, registry
    ):
        slow = _fake_compiler(tmp_path, f'sleep 0.5; exec "{REAL_CC}" "$@"')
        monkeypatch.setattr(native, "find_compiler", lambda: slow)
        monkeypatch.setattr(native, "BUILD_SEED_SECONDS", 0.0)
        builder.parked = False
        db = _db(tmp_path / "cache")
        plan = _plan()
        with Engine(db, registry=registry) as engine:
            want = engine.execute(plan, backend="instrumented").value
            assert engine.execute(plan).value == want  # earns its build
            dropped = engine.compile(plan).program
            assert dropped.tier == "building"
            engine.invalidate()
            assert engine.execute(plan).value == want
            fresh = engine.compile(plan).program
            assert fresh is not dropped
            _wait_for(lambda: fresh.tier == "native")
            assert engine.execute(plan).value == want
        # The in-flight build finished onto the program nobody runs any
        # more; its replacement reused the outcome: one compiler run.
        assert dropped.tier == "native"
        assert _builds(registry) == {"built": 1, "reused": 1}
        assert builder.snapshot()["builds"] == 1
        assert _errors(registry) == []
