"""Tests for the SWOLE planner's technique decisions, as the strategy
passes record them (``run_passes`` decisions + pass-note estimates)."""

import pytest

from repro.core import planner as P
from repro.core.planner import technique_matrix
from repro.datagen import microbench as mb
from repro.engine.machine import PAPER_MACHINE
from repro.plan import passes as PS
from repro.plan.ops import from_query


@pytest.fixture(scope="module")
def db():
    return mb.generate(
        mb.MicrobenchConfig(num_rows=50_000, s_rows=500, c_cardinality=64)
    )


#: Machine scaled as the harness would for this 50K-row database.
MACHINE = PAPER_MACHINE.scaled(mb.PAPER_R_ROWS / 50_000)


def plan_query(query, db):
    """(decisions, {pass name: {candidate: estimated cycles}})."""
    _, decisions, notes = PS.run_passes(
        from_query(query), db, MACHINE, "swole", None, encoding="auto"
    )
    estimates = {
        note.pass_name: dict(note.estimates)
        for note in notes
        if note.estimates and note.pass_name != "access-encoding"
    }
    return decisions, estimates


class TestScalarDecisions:
    def test_memory_bound_mul_picks_value_masking(self, db):
        decisions, _ = plan_query(mb.q1(50, "mul"), db)
        assert decisions.agg_mode == PS.VALUE_MASK

    def test_compute_bound_div_falls_back_to_hybrid(self, db):
        decisions, _ = plan_query(mb.q1(30, "div"), db)
        assert decisions.agg_mode == PS.GATHERED

    def test_estimates_recorded_for_all_candidates(self, db):
        _, estimates = plan_query(mb.q1(50), db)
        assert set(estimates["aggregation"]) == {P.HYBRID, P.VALUE_MASKING}
        assert all(v > 0 for v in estimates["aggregation"].values())


class TestAccessMerging:
    def test_detected_when_column_reused(self, db):
        decisions, _ = plan_query(mb.q3(50, "r_x"), db)
        assert decisions.merged_columns == ("r_x",)

    def test_not_applied_without_reuse(self, db):
        decisions, _ = plan_query(mb.q1(50), db)
        assert decisions.merged_columns == ()


class TestGroupedDecisions:
    def test_three_candidates_considered(self, db):
        _, estimates = plan_query(mb.q2(50), db)
        assert set(estimates["aggregation"]) == {
            P.HYBRID,
            P.VALUE_MASKING,
            P.KEY_MASKING,
        }

    def test_low_selectivity_prefers_hybrid(self, db):
        decisions, _ = plan_query(mb.q2(2), db)
        assert decisions.agg_mode == PS.GATHERED


class TestSemijoinDecisions:
    def test_bitmap_always_chosen(self, db):
        decisions, _ = plan_query(mb.q4(50, 50), db)
        (mode,) = decisions.join_modes.values()
        assert mode in (PS.BITMAP_MASK, PS.BITMAP_OFFSETS)

    def test_high_build_selectivity_prefers_mask_write(self, db):
        decisions, _ = plan_query(mb.q4(50, 95), db)
        assert list(decisions.join_modes.values()) == [PS.BITMAP_MASK]


class TestGroupjoinDecisions:
    def test_mode_is_decided(self, db):
        decisions, estimates = plan_query(mb.q5(50), db)
        assert decisions.groupjoin_mode in (P.EAGER, P.GROUPJOIN)
        assert set(estimates["eager-aggregation"]) == {P.EAGER, P.GROUPJOIN}

    def test_describe_mentions_choices(self, db):
        decisions, _ = plan_query(mb.q5(50), db)
        assert "groupjoin=" in decisions.describe()


class TestTechniqueMatrix:
    def test_matches_paper_figure_2(self):
        matrix = technique_matrix()
        assert set(matrix) == {
            "Value Masking",
            "Key Masking",
            "Access Merging",
            "Positional Bitmaps",
            "Eager Aggregation",
        }
        assert matrix["Access Merging"]["heuristics"] == "Always Better"
        assert matrix["Positional Bitmaps"]["heuristics"] == "Always Better"
