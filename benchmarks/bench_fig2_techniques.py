"""Figure 2: the SWOLE technique summary, as planner behaviour.

Verifies that the planner actually implements the Fig. 2 applicability
matrix — each technique is reachable on the operator classes the paper
lists — and benchmarks planning itself (it symbolically executes cost
models, so it should stay trivially cheap relative to execution).
"""

import pytest

from repro.core import planner as P
from repro.core.planner import technique_matrix
from repro.datagen import microbench as mb
from repro.plan import passes as PS
from repro.plan.ops import from_query


@pytest.fixture(scope="module")
def machine(micro_machine):
    return micro_machine


def plan_query(query, db, machine):
    """The SWOLE pass pipeline's decisions for a microbench query."""
    _, decisions, _ = PS.run_passes(
        from_query(query), db, machine, "swole", None, encoding="auto"
    )
    return decisions


def test_fig2_matrix_rows():
    matrix = technique_matrix()
    assert len(matrix) == 5
    for info in matrix.values():
        assert {"section", "operators", "heuristics"} <= set(info)


def test_fig2_value_masking_reachable(micro_db, machine):
    plan = plan_query(mb.q1(50), micro_db, machine)
    assert plan.agg_mode == PS.VALUE_MASK


def test_fig2_hybrid_fallback_reachable(micro_db, machine):
    plan = plan_query(mb.q1(20, "div"), micro_db, machine)
    assert plan.agg_mode == PS.GATHERED


def test_fig2_key_masking_reachable(machine):
    config = mb.MicrobenchConfig(
        num_rows=200_000, s_rows=2_000, c_cardinality=20_000
    )
    db = mb.generate(config)
    from repro.bench.microbench import scaled_machine

    found = False
    for sel in (60, 70, 80, 90, 99):
        plan = plan_query(mb.q2(sel), db, scaled_machine(config))
        if plan.agg_mode == PS.KEY_MASK:
            found = True
            break
    assert found, "key masking unreachable on a large group-by"


def test_fig2_bitmaps_always_selected_for_semijoins(micro_db, machine):
    for sel1, sel2 in ((10, 10), (50, 50), (90, 90)):
        plan = plan_query(mb.q4(sel1, sel2), micro_db, machine)
        (mode,) = plan.join_modes.values()
        assert mode in (PS.BITMAP_MASK, PS.BITMAP_OFFSETS)


def test_fig2_eager_aggregation_reachable(micro_db, machine):
    found = False
    for sel in (40, 60, 80, 99):
        plan = plan_query(mb.q5(sel), micro_db, machine)
        if plan.groupjoin_mode == P.EAGER:
            found = True
            break
    assert found


def test_fig2_access_merging_always_applied(micro_db, machine):
    plan = plan_query(mb.q3(50, "r_x"), micro_db, machine)
    assert plan.merged_columns == ("r_x",)


def test_planning_is_cheap(benchmark, micro_db, machine):
    benchmark.group = "fig2:planner"
    benchmark.pedantic(
        lambda: plan_query(mb.q2(50), micro_db, machine),
        rounds=5,
        iterations=1,
    )
