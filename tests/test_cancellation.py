"""Cooperative cancellation: tokens, the morsel cursor, and the Engine.

The contract: a :class:`CancelToken` carries a monotonic deadline plus
an explicit cancel flag; the morsel batch checks it at every claim, so
a timed-out parallel run stops within one morsel's worth of work and
raises :class:`QueryTimeout` naming the elapsed time; ``Engine.execute``
takes the token as ``cancel=`` (a relative budget is
``CancelToken.after(seconds)``).
Thread and shard runs share the one cursor, so the engine-level cases
run on both tiers.
"""

import re
import time

import pytest

from repro.datagen import microbench as mb
from repro.datagen.cache import load_dataset
from repro.engine import CancelToken, Engine, ExecutionKnobs, MorselBatch
from repro.engine.program import results_equal
from repro.errors import QueryCancelled, QueryTimeout

from .conftest import drain


class SlowPlan:
    """A fake parallel plan whose morsels take real wall time."""

    def __init__(self, sleep=0.02):
        self.sleep = sleep
        self.ran = 0

    def partial(self, ctx, lo, hi):
        time.sleep(self.sleep)
        self.ran += 1
        return {"rows": hi - lo}


def slow_batch(token, n_morsels=50, workers=2, sleep=0.02):
    plan = SlowPlan(sleep=sleep)
    morsels = [(i * 10, (i + 1) * 10) for i in range(n_morsels)]
    return (
        MorselBatch(plan, None, morsels, "slow", workers, cancel=token),
        plan,
    )


class LapsesAtClaim(CancelToken):
    """A deadline that lapses when the cursor is asked for its
    ``claims + 1``-th morsel: mid-run by construction, no sleeping."""

    def __init__(self, claims):
        super().__init__(deadline=time.monotonic() + 3600.0)
        self.claims_left = claims

    def stop_requested(self, now=None):
        self.claims_left -= 1
        if self.claims_left < 0:
            self.deadline = self.created_at
        return super().stop_requested(now)


def morsels_run(engine):
    """Lifetime (pool morsels, shard tasks) of ``engine``."""
    group = engine._shard_group
    return (
        engine.pool.snapshot()["morsels"],
        group.snapshot()["tasks"] if group is not None else 0,
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

        def cancelling(ctx, lo, hi):
            value = original(ctx, lo, hi)
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
    def test_generous_deadline_completes_normally(self, micro_db):
        with Engine(db=micro_db, workers=2) as engine:
            plain = engine.execute(mb.q1(30), "swole", workers=2)
            bounded = engine.execute(
                mb.q1(30), "swole", workers=2,
                cancel=CancelToken.after(60.0),
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

    # -- both tiers: threads and shard processes, one cursor -------------

    MORSELS = 20

    @pytest.fixture(params=["workers", "shards"])
    def tier(self, request):
        """``(engine, execute kwargs)`` running 20-morsel scans on two
        threads, or on two shard processes."""
        db = load_dataset(
            "microbench",
            mb.MicrobenchConfig(num_rows=20_000, s_rows=200, c_cardinality=16),
        )
        how = {"workers": {"shards": 0}, "shards": {"shards": 2}}
        knobs = ExecutionKnobs(morsel_rows=20_000 // self.MORSELS)
        with Engine(db, workers=2, knobs=knobs) as engine:
            # Warm: program compiled, pool threads / workers up.
            warm = engine.execute(mb.q1(30), "swole", **how[request.param])
            assert warm.metrics.morsels == self.MORSELS
            assert warm.metrics.sharded == (request.param == "shards")
            yield engine, how[request.param]

    def test_expired_token_runs_no_morsel(self, tier):
        engine, how = tier
        before = morsels_run(engine)
        token = CancelToken(deadline=time.monotonic() - 0.01)
        with pytest.raises(QueryTimeout):
            engine.execute(mb.q1(30), "swole", cancel=token, **how)
        # raised at the door: no batch submitted, no task sent
        assert morsels_run(engine) == before

    def test_deadline_lapsing_mid_run_stops_within_one_morsel(self, tier):
        engine, how = tier
        expected = engine.execute(mb.q1(30), "swole", workers=1, shards=0)
        before = morsels_run(engine)
        handed_out = 5
        with pytest.raises(
            QueryTimeout, match=rf"after \d+/{self.MORSELS} morsels"
        ) as info:
            engine.execute(
                mb.q1(30), "swole", cancel=LapsesAtClaim(handed_out), **how
            )
        done = int(re.search(r"after (\d+)/", str(info.value)).group(1))
        assert done <= handed_out
        # Nothing was claimed past the lapse: only morsels handed out
        # before it ran (or, on shards, crossed the pipe).
        after = morsels_run(engine)
        assert 0 < after[0] - before[0] <= handed_out
        assert after[1] - before[1] <= handed_out
        again = engine.execute(mb.q1(30), "swole", **how)
        assert again.metrics.morsels == self.MORSELS
        assert results_equal(again, expected)
