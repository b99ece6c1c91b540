"""Admission-control gates: quotas, shedding, refill recovery."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.serve.admission import (
    ADMITTED,
    REJECTED,
    SHED,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)


class TestTokenBucket:
    def test_burst_then_exhaustion(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert [bucket.take(now=0.0) for _ in range(4)] == [True, True, True, False]

    def test_continuous_refill(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        assert bucket.take(now=0.0)
        assert not bucket.take(now=0.0)
        assert not bucket.take(now=0.4)  # only 0.8 tokens back
        assert bucket.take(now=0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.tokens_at(1000.0) == 2.0

    def test_seconds_until_token(self):
        bucket = TokenBucket(rate=0.5, burst=1.0)
        assert bucket.take(now=0.0)
        assert bucket.seconds_until_token(0.0) == pytest.approx(2.0)
        assert bucket.seconds_until_token(1.0) == pytest.approx(1.0)
        assert bucket.seconds_until_token(2.0) == 0.0

    def test_stale_now_refills_nothing(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.take(now=10.0)
        assert bucket.take(now=10.0)
        assert not bucket.take(now=5.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)
        with pytest.raises(ValueError, match="whole token"):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_unlimited_by_default(self):
        controller = AdmissionController()
        assert controller.unlimited
        decisions = [
            controller.admit("t", now=0.0, queue_depth=0) for _ in range(1000)
        ]
        assert all(d.admitted for d in decisions)

    def test_quota_exhaustion_rejects_with_retry_hint(self):
        controller = AdmissionController(quota_rate=1.0, quota_burst=2.0)
        assert controller.admit("alice", now=0.0, queue_depth=0).admitted
        assert controller.admit("alice", now=0.0, queue_depth=0).admitted
        decision = controller.admit("alice", now=0.0, queue_depth=0)
        assert decision.status == REJECTED
        assert not decision.admitted
        assert decision.retry_after == pytest.approx(1.0)
        assert "quota" in decision.reason

    def test_recovery_after_refill(self):
        controller = AdmissionController(quota_rate=0.5, quota_burst=1.0)
        assert controller.admit("alice", now=0.0, queue_depth=0).admitted
        assert controller.admit("alice", now=1.0, queue_depth=0).status == REJECTED
        assert controller.admit("alice", now=2.0, queue_depth=0).admitted

    def test_tenants_have_independent_buckets(self):
        controller = AdmissionController(quota_rate=1.0, quota_burst=1.0)
        assert controller.admit("alice", now=0.0, queue_depth=0).admitted
        assert controller.admit("alice", now=0.0, queue_depth=0).status == REJECTED
        assert controller.admit("bob", now=0.0, queue_depth=0).admitted

    def test_queue_overflow_sheds(self):
        controller = AdmissionController(queue_limit=4)
        assert controller.admit("t", now=0.0, queue_depth=3).admitted
        decision = controller.admit("t", now=0.0, queue_depth=4)
        assert decision.status == SHED
        assert "queue full" in decision.reason

    def test_shed_does_not_spend_a_token(self):
        controller = AdmissionController(
            quota_rate=1.0, quota_burst=1.0, queue_limit=1
        )
        assert controller.admit("t", now=0.0, queue_depth=1).status == SHED
        # the bucket is untouched: the next uncongested request is admitted
        assert controller.admit("t", now=0.0, queue_depth=0).admitted

    def test_zero_queue_limit_never_sheds(self):
        controller = AdmissionController(queue_limit=0)
        assert controller.admit("t", now=0.0, queue_depth=10**6).admitted

    def test_counters(self):
        controller = AdmissionController(
            quota_rate=1.0, quota_burst=1.0, queue_limit=2
        )
        controller.admit("a", now=0.0, queue_depth=0)
        controller.admit("a", now=0.0, queue_depth=0)  # rejected
        controller.admit("b", now=0.0, queue_depth=2)  # shed
        assert controller.snapshot() == {
            "a": {"admitted": 1, "rejected": 1, "shed": 0},
            "b": {"admitted": 0, "rejected": 0, "shed": 1},
        }
        assert controller.totals() == {"admitted": 1, "rejected": 1, "shed": 1}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdmissionController(quota_rate=-1.0)
        with pytest.raises(ValueError):
            AdmissionController(quota_burst=0.0)
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=-1)

    @pytest.mark.parametrize("burst", [0.5, 0.999, math.nextafter(1.0, 0.0)])
    def test_a_bucket_must_hold_a_whole_token(self, burst):
        with pytest.raises(ValueError, match="quota_burst must be >= 1"):
            AdmissionController(quota_rate=1.0, quota_burst=burst)

    @settings(max_examples=300, deadline=None)
    @given(
        rate=st.floats(min_value=1e-3, max_value=1e4),
        burst=st.floats(min_value=1e-2, max_value=50.0),
        earlier=st.floats(min_value=0.0, max_value=1e6),
        gap=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_retry_after_comes_true(self, rate, burst, earlier, gap):
        """A tenant refused at ``now`` is admitted at ``now + retry_after``,
        for every quota setting the controller accepts."""
        try:
            controller = AdmissionController(quota_rate=rate, quota_burst=burst)
        except ValueError:
            assume(False)
        now = earlier + gap
        for moment in (earlier, now):  # drain, partly refill, drain again
            for _ in range(int(burst) + 2):
                decision = controller.admit("t", now=moment, queue_depth=0)
                if not decision.admitted:
                    break
        assert decision.status == REJECTED
        assert decision.retry_after > 0
        retry = controller.admit("t", now=now + decision.retry_after, queue_depth=0)
        assert retry.admitted

    def test_infinite_rate_is_valid(self):
        assert AdmissionController(quota_rate=math.inf).unlimited


class TestAdmissionDecision:
    def test_admitted_property(self):
        assert AdmissionDecision(status=ADMITTED, tenant="t").admitted
        assert not AdmissionDecision(status=SHED, tenant="t").admitted
