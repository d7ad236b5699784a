"""Figure 8: µQ1 — value masking vs data-centric vs hybrid.

Shape assertions (paper §IV-B1):
* 8a (multiplication, memory-bound): data-centric shows the branch-
  misprediction hump peaking near 50 %; value masking is flat and wins
  nearly everywhere.
* 8b (division, compute-bound): value masking only pays off near 100 %
  selectivity; the SWOLE planner falls back to hybrid below that.

Those are simulated cycles. The native tier (:mod:`repro.codegen.
native`) puts the same figure on a **wall-clock** axis: data-centric
compiles to one ``if`` per conjunct, hybrid to a 0/1 mask and one
``if (m)``, SWOLE to a predicated add with no branch at all, so the
hump is either there on this host's CPU or it is not.
:func:`native_wall_series` measures it; the test asserts only what no
host can change (equal answers, every cell on its C kernel), and
``python benchmarks/bench_fig8_value_masking.py`` prints the
EXPERIMENTS.md section with host, cpus, commit and ``cc --version``.
"""

import os
import platform
import subprocess
import sys
from time import perf_counter

import pytest

from repro import Engine
from repro.bench import microbench as sweep
from repro.codegen import native
from repro.datagen import microbench as mb

from conftest import BENCH_CONFIG, BENCH_SELS

#: The three instruction streams of 8a, by the strategy that emits them.
NATIVE_SERIES = {
    "datacentric": "branch per conjunct",
    "hybrid": "0/1 mask, if (m)",
    "swole": "value-masked add",
}

#: The planner's choice per sweep point (8a: masking everywhere; 8b:
#: the hybrid fallback until only ~1 % of the divisions are wasted).
FIG8A_DECISIONS = dict.fromkeys(BENCH_SELS, "aggregation=value_mask")
FIG8B_DECISIONS = {
    **dict.fromkeys(BENCH_SELS, "aggregation=gathered"),
    99: "aggregation=value_mask",
}


@pytest.fixture(scope="module")
def fig8a(micro_db):
    return sweep.fig8("mul", config=BENCH_CONFIG, db=micro_db,
                      selectivities=BENCH_SELS)


@pytest.fixture(scope="module")
def fig8b(micro_db):
    return sweep.fig8("div", config=BENCH_CONFIG, db=micro_db,
                      selectivities=BENCH_SELS)


@pytest.mark.parametrize("strategy", ("datacentric", "hybrid", "swole"))
@pytest.mark.parametrize("sel", (10, 50, 90))
def test_fig8_wall_time(benchmark, micro_engine, micro_session, strategy,
                        sel):
    compiled = micro_engine.compile(mb.q1(sel), strategy)
    benchmark.group = f"fig8a:sel={sel}"
    benchmark.pedantic(
        lambda: compiled.run(micro_session), rounds=3, iterations=1
    )


def _at(result, strategy, sel):
    return result.series[strategy][result.x_values.index(sel)]


def test_fig8a_datacentric_hump_peaks_mid_selectivity(fig8a):
    dc = fig8a.series["datacentric"]
    peak_sel = fig8a.x_values[dc.index(max(dc))]
    assert 25 <= peak_sel <= 75
    assert max(dc) > 1.5 * dc[0]
    assert max(dc) > 1.5 * dc[-1]


def test_fig8a_value_masking_flat(fig8a):
    sw = fig8a.series["swole"]
    assert max(sw) / min(sw) < 1.1


def test_fig8a_masking_wins_nearly_everywhere(fig8a):
    for sel in (10, 25, 50, 75, 90, 99):
        assert _at(fig8a, "swole", sel) < _at(fig8a, "hybrid", sel)
        assert _at(fig8a, "swole", sel) < _at(fig8a, "datacentric", sel)


def test_fig8b_division_rises_for_pushdown_strategies(fig8b):
    for strategy in ("datacentric", "hybrid"):
        series = fig8b.series[strategy]
        assert series[-1] > 2 * series[0]


def test_fig8b_masking_only_near_full_selectivity(fig8b):
    # hybrid wins at mid selectivities; SWOLE matches it by falling back
    assert _at(fig8b, "swole", 50) == pytest.approx(
        _at(fig8b, "hybrid", 50), rel=0.02
    )


def test_fig8_planner_decisions_unchanged(fig8a, fig8b):
    assert fig8a.decisions == FIG8A_DECISIONS
    assert fig8b.decisions == FIG8B_DECISIONS


def test_fig8b_datacentric_does_not_recover_after_peak(fig8b):
    dc = fig8b.series["datacentric"]
    assert dc[-1] >= 0.9 * max(dc)  # no post-50% decline (paper 8b)


def native_wall_series(db, selectivities, repeats=7):
    """µQ1 (multiplication) on the native kernels: per strategy, the
    min-of-``repeats`` wall milliseconds of the final kernel at each
    selectivity, plus the answers (for the equality check)."""
    series = {strategy: [] for strategy in NATIVE_SERIES}
    answers = {strategy: [] for strategy in NATIVE_SERIES}
    with Engine(db, backend="vectorized") as engine:
        for sel in selectivities:
            for strategy in NATIVE_SERIES:
                program = engine.compile(mb.q1(sel), strategy).program
                tier = program.build_now()
                assert tier == "native", (sel, strategy, tier)
                best = float("inf")
                for _ in range(repeats):
                    begin = perf_counter()
                    value = program.execute()
                    best = min(best, perf_counter() - begin)
                assert program.native.fallbacks == {}
                series[strategy].append(best * 1e3)
                answers[strategy].append(value["sum"])
    return series, answers


def shape(series):
    """``"hump"`` when the interior of a series stands out above both
    of its ends by a quarter or more, else ``"flat"`` / ``"rising"``."""
    ends = max(series[0], series[-1])
    if max(series[1:-1]) > 1.25 * ends:
        return "hump"
    return "rising" if series[-1] > 1.25 * series[0] else "flat"


@pytest.mark.skipif(
    native.find_compiler() is None,
    reason="no C compiler (cc) on PATH: no native wall-clock series",
)
def test_fig8a_native_wall_clock_series(micro_db, fig8a):
    series, answers = native_wall_series(micro_db, BENCH_SELS, repeats=3)
    # Host-independent: three instruction streams, one answer per
    # point — the simulated sweep's — and the planner's decisions are
    # the ones the simulated figure was drawn with.
    assert answers["datacentric"] == answers["hybrid"] == answers["swole"]
    reference = Engine(micro_db, backend="instrumented")
    for sel, answer in zip(BENCH_SELS, answers["swole"]):
        assert answer == reference.execute(mb.q1(sel), "hybrid").scalar()
    assert fig8a.decisions == FIG8A_DECISIONS
    # Host-dependent, so recorded and not asserted: the shape.
    for strategy, points in series.items():
        assert all(ms > 0 for ms in points), strategy
        print(f"fig8a native {strategy}: {shape(points)} {points}")


def _experiments_section(rows, selectivities, repeats):
    """The EXPERIMENTS.md text for one run of the native series."""
    config = mb.MicrobenchConfig(num_rows=rows, s_rows=2_000,
                                 c_cardinality=256)
    series, _ = native_wall_series(
        mb.generate(config), selectivities, repeats
    )
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=False,
    ).stdout.strip() or "unknown"
    compiler = subprocess.run(
        [native.find_compiler(), "--version"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()[0]
    lines = [
        f"µQ1 (mul), R = {rows:,} rows, native kernels, min of {repeats} "
        "runs per point, wall ms:",
        "",
        "| sel % | " + " | ".join(
            f"{s} ({NATIVE_SERIES[s]})" for s in NATIVE_SERIES
        ) + " |",
        "|------:|" + "|".join("---:" for _ in NATIVE_SERIES) + "|",
    ]
    for i, sel in enumerate(selectivities):
        lines.append(
            f"| {sel} | " + " | ".join(
                f"{series[s][i]:.3f}" for s in NATIVE_SERIES
            ) + " |"
        )
    lines.append(
        "| shape | " + " | ".join(
            f"**{shape(series[s])}**" for s in NATIVE_SERIES
        ) + " |"
    )
    lines += [
        "",
        f"Host: {platform.platform()}, {platform.processor() or 'x86_64'}, "
        f"**{len(os.sched_getaffinity(0))} cpus**, Python "
        f"{platform.python_version()}; commit `{commit}`; `{compiler}`, "
        f"flags `{' '.join(native.CC_FLAGS)}`.",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(_experiments_section(
        rows=int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000,
        selectivities=(1, 5, 10, 25, 40, 50, 60, 75, 90, 95, 99),
        repeats=15,
    ))
