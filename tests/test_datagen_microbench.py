"""Tests for the microbenchmark workload generator (paper Fig. 7)."""

import numpy as np
import pytest

from repro.datagen import microbench as mb
from repro.errors import DataGenError
from repro.plan.expressions import Col
from repro.plan.ops import is_groupjoin, spine_joins


class TestConfig:
    def test_defaults_valid(self):
        config = mb.MicrobenchConfig()
        assert config.num_rows > 0

    def test_bad_sizes_rejected(self):
        with pytest.raises(DataGenError):
            mb.MicrobenchConfig(num_rows=0)
        with pytest.raises(DataGenError):
            mb.MicrobenchConfig(s_rows=0)
        with pytest.raises(DataGenError):
            mb.MicrobenchConfig(c_cardinality=0)

    def test_scale_factor(self):
        config = mb.MicrobenchConfig(num_rows=1_000_000)
        assert config.scale_factor == 100.0


class TestGeneratedData:
    def test_schema(self, micro_db, micro_config):
        r = micro_db.table("R")
        s = micro_db.table("S")
        assert r.num_rows == micro_config.num_rows
        assert s.num_rows == micro_config.s_rows
        assert set(r.column_names) == {
            "r_a", "r_b", "r_x", "r_y", "r_c", "r_fk",
        }
        assert set(s.column_names) == {"s_pk", "s_x"}

    def test_selectivity_column_calibrated(self, micro_db):
        """``r_x < SEL`` selects SEL% within sampling noise."""
        x = micro_db.table("R")["r_x"]
        for sel in (10, 50, 90):
            assert float((x < sel).mean()) == pytest.approx(
                sel / 100, abs=0.02
            )

    def test_r_y_is_constant_one(self, micro_db):
        assert (micro_db.table("R")["r_y"] == 1).all()

    def test_values_never_zero_for_division(self, micro_db):
        assert (micro_db.table("R")["r_a"] >= 1).all()
        assert (micro_db.table("R")["r_b"] >= 1).all()

    def test_group_cardinality(self, micro_db, micro_config):
        distinct = np.unique(micro_db.table("R")["r_c"]).shape[0]
        assert distinct == micro_config.c_cardinality

    def test_fk_references_valid(self, micro_db, micro_config):
        fk = micro_db.table("R")["r_fk"]
        assert fk.min() >= 0 and fk.max() < micro_config.s_rows
        assert micro_db.fk_index("R", "r_fk").is_dense

    def test_uniform_distribution(self, micro_db, micro_config):
        """The paper's worst case: uniform keys (chi-square sanity)."""
        counts = np.bincount(
            micro_db.table("R")["r_c"], minlength=micro_config.c_cardinality
        )
        expected = micro_config.num_rows / micro_config.c_cardinality
        assert counts.std() / expected < 0.2

    def test_deterministic_by_seed(self):
        config = mb.MicrobenchConfig(num_rows=1000, s_rows=50)
        a = mb.generate(config)
        b = mb.generate(config)
        assert np.array_equal(a.table("R")["r_a"], b.table("R")["r_a"])


class TestQueryFactories:
    def test_q1_op_validated(self):
        with pytest.raises(DataGenError):
            mb.q1(50, "mod")

    def test_q3_col_validated(self):
        with pytest.raises(DataGenError):
            mb.q3(50, "r_a")

    def test_q4_is_semijoin(self):
        root = mb.q4(10, 20).root
        (join,) = spine_joins(root.child)
        assert join.is_semijoin and not is_groupjoin(root)

    def test_q5_is_groupjoin(self):
        assert is_groupjoin(mb.q5(10).root)

    def test_q2_groups_by_c(self):
        root = mb.q2(10).root
        assert root.key == Col("r_c") and root.key_name == "r_c"

    def test_names_carry_parameters(self):
        assert "div" in mb.q1(10, "div").name
        assert "r_x" in mb.q3(10, "r_x").name
