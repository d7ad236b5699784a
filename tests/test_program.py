"""Tests for compiled programs and result handling."""

import numpy as np
import pytest

from repro import Engine
from repro.datagen import microbench as mb
from repro.engine import Session
from repro.engine.program import QueryResult, results_equal
from repro.engine.costing import CostReport
from repro.engine.machine import PAPER_MACHINE


def compile_query(query, db, strategy, backend="instrumented"):
    return Engine(db, backend=backend).compile(query, strategy)


class TestCompiledQuery:
    def test_run_uses_fresh_tracer(self, micro_db):
        compiled = compile_query(mb.q1(50), micro_db, "hybrid")
        session = Session()
        first = compiled.run(session)
        second = compiled.run(session)
        assert first.cycles == pytest.approx(second.cycles)

    def test_run_without_session(self, micro_db):
        compiled = compile_query(mb.q1(50), micro_db, "hybrid")
        result = compiled.run()
        assert result.cycles > 0

    def test_source_attached(self, micro_db):
        # Instrumented programs interpret the physical plan and carry
        # its rendering; vectorized ones carry the kernel they exec'd.
        compiled = compile_query(mb.q1(50), micro_db, "datacentric")
        assert "Filter[branch] r_x[i] < 50" in compiled.source
        generated = compile_query(
            mb.q1(50), micro_db, "datacentric", backend="vectorized"
        )
        assert "def _kernel_0(v, state, lo):" in generated.source

    def test_seconds_consistent_with_cycles(self, micro_db):
        compiled = compile_query(mb.q1(50), micro_db, "hybrid")
        result = compiled.run(Session(machine=PAPER_MACHINE))
        assert result.seconds == pytest.approx(
            result.cycles / (PAPER_MACHINE.ghz * 1e9)
        )


class TestQueryResult:
    def test_scalar_accessor(self, micro_db):
        result = compile_query(mb.q1(50), micro_db, "hybrid").run()
        assert result.scalar("sum") == result.value["sum"]

    def test_groups_accessor(self, micro_db):
        result = compile_query(mb.q2(50), micro_db, "hybrid").run()
        groups = result.groups()
        assert len(groups) == len(result.value["keys"])
        first_key = int(result.value["keys"][0])
        assert groups[first_key][0] == int(result.value["aggs"][0][0])

    def test_groups_preserves_aggregate_dtype(self):
        # Regression: fractional aggregates used to be truncated to int.
        report = CostReport(machine=PAPER_MACHINE)
        value = {
            "keys": np.asarray([3, 7]),
            "aggs": np.asarray([[1.25, 4.0], [2.5, 8.0]]),
        }
        groups = QueryResult(value=value, report=report).groups()
        assert groups[3] == (1.25, 4.0)
        assert groups[7] == (2.5, 8.0)
        assert isinstance(groups[3][0], float)

    def test_groups_integer_aggs_stay_int(self):
        report = CostReport(machine=PAPER_MACHINE)
        value = {
            "keys": np.asarray([1]),
            "aggs": np.asarray([[10, 2]], dtype=np.int64),
        }
        groups = QueryResult(value=value, report=report).groups()
        assert groups[1] == (10, 2)
        assert isinstance(groups[1][0], int)


class TestResultsEqual:
    def _result(self, value):
        return QueryResult(value=value, report=CostReport(machine=PAPER_MACHINE))

    def test_scalar_equality(self):
        assert results_equal(self._result({"sum": 5}), self._result({"sum": 5}))
        assert not results_equal(
            self._result({"sum": 5}), self._result({"sum": 6})
        )

    def test_different_keys_unequal(self):
        assert not results_equal(
            self._result({"sum": 5}), self._result({"count": 5})
        )

    def test_array_equality(self):
        a = self._result({"keys": np.asarray([1, 2])})
        b = self._result({"keys": np.asarray([1, 2])})
        c = self._result({"keys": np.asarray([1, 3])})
        assert results_equal(a, b)
        assert not results_equal(a, c)
