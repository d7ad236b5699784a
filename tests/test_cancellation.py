"""Cooperative cancellation: tokens, the morsel cursor, and the Engine.

The contract: a :class:`CancelToken` carries a monotonic deadline plus
an explicit cancel flag; the morsel batch checks it at every claim, so
a timed-out parallel run stops within one morsel's worth of work and
raises :class:`QueryTimeout` naming the elapsed time; ``Engine.execute``
accepts either a relative ``deadline=`` budget or an existing token.
"""

import time

import pytest

from repro.datagen import microbench as mb
from repro.engine import CancelToken, Engine, MorselBatch
from repro.engine.program import results_equal
from repro.engine.session import Session
from repro.errors import QueryCancelled, QueryTimeout, ReproError

from .conftest import drain


class SlowPlan:
    """A fake parallel plan whose morsels take real wall time."""

    def __init__(self, sleep=0.02):
        self.sleep = sleep
        self.ran = 0

    def partial(self, session, ctx, lo, hi):
        time.sleep(self.sleep)
        self.ran += 1
        return {"rows": hi - lo}


def slow_batch(token, n_morsels=50, workers=2, sleep=0.02):
    plan = SlowPlan(sleep=sleep)
    morsels = [(i * 10, (i + 1) * 10) for i in range(n_morsels)]
    return (
        MorselBatch(
            Session(), plan, None, morsels, "slow", workers, cancel=token
        ),
        plan,
    )


class TestCancelToken:
    def test_no_deadline_never_expires(self):
        token = CancelToken()
        assert not token.expired()
        assert not token.stop_requested()
        assert token.budget() is None
        assert token.remaining() is None
        token.check()  # no-op

    def test_after_builds_relative_budget(self):
        token = CancelToken.after(10.0)
        assert token.budget() == pytest.approx(10.0, abs=0.1)
        assert 0 < token.remaining() <= 10.0
        assert not token.expired()

    def test_after_rejects_non_positive_budget(self):
        with pytest.raises(QueryTimeout):
            CancelToken.after(0.0)
        with pytest.raises(QueryTimeout):
            CancelToken.after(-1.0)

    def test_expiry_is_monotonic_deadline(self):
        token = CancelToken(deadline=time.monotonic() - 0.01)
        assert token.expired()
        assert token.stop_requested()
        assert token.remaining() < 0

    def test_cancel_flag(self):
        token = CancelToken.after(60.0)
        assert not token.cancelled
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled
        assert token.stop_requested()
        assert not token.expired()  # cancel is not expiry

    def test_check_raises_timeout_with_elapsed(self):
        token = CancelToken(deadline=time.monotonic() - 0.01)
        with pytest.raises(QueryTimeout, match=r"elapsed") as info:
            token.check("uQ1")
        assert "uQ1" in str(info.value)
        assert info.value.elapsed >= 0.0

    def test_check_raises_cancelled(self):
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled, match=r"cancelled"):
            token.check()


class TestMorselCursorStops:
    def test_expired_token_stops_before_any_morsel(self):
        token = CancelToken(deadline=time.monotonic() - 1.0)
        batch, plan = slow_batch(token)
        with pytest.raises(QueryTimeout, match=r"0/50 morsels"):
            drain(batch)
        assert plan.ran == 0
        assert batch.cancelled

    def test_deadline_stops_mid_batch_naming_elapsed(self):
        # 50 morsels x 20 ms each on 2 workers would take ~500 ms; the
        # 80 ms budget must stop the cursor long before the end.
        token = CancelToken.after(0.08)
        batch, plan = slow_batch(token)
        with pytest.raises(
            QueryTimeout, match=r"deadline .* morsels .*s elapsed"
        ) as info:
            drain(batch)
        assert 0 < plan.ran < 50
        assert info.value.elapsed >= 0.08
        assert info.value.deadline == pytest.approx(0.08, abs=0.01)

    def test_explicit_cancel_stops_mid_batch(self):
        token = CancelToken()
        batch, plan = slow_batch(token, sleep=0.01)

        original = plan.partial

        def cancelling(session, ctx, lo, hi):
            value = original(session, ctx, lo, hi)
            if plan.ran >= 3:
                token.cancel()
            return value

        plan.partial = cancelling
        with pytest.raises(QueryCancelled, match=r"cancelled after"):
            drain(batch)
        assert plan.ran < 50

    def test_completed_morsels_keep_their_values(self):
        token = CancelToken.after(0.08)
        batch, _ = slow_batch(token)
        with pytest.raises(QueryTimeout):
            drain(batch)
        done = [v for v in batch.values if v is not None]
        assert done  # the work before the deadline is recorded
        assert all(v == {"rows": 10} for v in done)


class TestEnginePlumbing:
    def test_deadline_and_cancel_are_exclusive(self, micro_db):
        with Engine(db=micro_db, workers=2) as engine:
            with pytest.raises(ReproError, match=r"not both"):
                engine.execute(
                    mb.q1(30),
                    "swole",
                    deadline=1.0,
                    cancel=CancelToken(),
                )

    def test_generous_deadline_completes_normally(self, micro_db):
        with Engine(db=micro_db, workers=2) as engine:
            plain = engine.execute(mb.q1(30), "swole", workers=2)
            bounded = engine.execute(
                mb.q1(30), "swole", workers=2, deadline=60.0
            )
            assert bounded.value == plain.value

    def test_expired_token_raises_before_running(self, micro_db):
        with Engine(db=micro_db, workers=2) as engine:
            token = CancelToken(deadline=time.monotonic() - 0.01)
            with pytest.raises(QueryTimeout):
                engine.execute(mb.q1(30), "swole", workers=2, cancel=token)
            # serial runs pre-check the same token
            with pytest.raises(QueryTimeout):
                engine.execute(mb.q1(30), "swole", workers=1, cancel=token)

    def test_cancelled_token_raises_query_cancelled(self, micro_db):
        with Engine(db=micro_db, workers=2) as engine:
            token = CancelToken()
            token.cancel()
            with pytest.raises(QueryCancelled):
                engine.execute(mb.q1(30), "swole", workers=2, cancel=token)

    def test_engine_usable_after_timeout(self, micro_db):
        with Engine(db=micro_db, workers=2) as engine:
            token = CancelToken(deadline=time.monotonic() - 0.01)
            with pytest.raises(QueryTimeout):
                engine.execute(mb.q2(40), "swole", workers=2, cancel=token)
            result = engine.execute(mb.q2(40), "swole", workers=2)
            serial = engine.execute(mb.q2(40), "swole", workers=1)
            assert results_equal(result, serial)

    def test_timeout_is_execution_error_subclass(self):
        from repro.errors import ExecutionError

        assert issubclass(QueryTimeout, ExecutionError)
        assert issubclass(QueryCancelled, ExecutionError)
