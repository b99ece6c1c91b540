"""Admission control for the live placement service.

The daemon sits between untrusted tenants and a finite platform, so every
submission passes two gates *before* it reaches the scheduler:

* a **per-tenant token bucket** — each tenant spends one token per
  request; tokens refill continuously at ``quota_rate`` per (virtual)
  second up to a burst capacity of ``quota_burst``.  An empty bucket is
  the 429-style :data:`REJECTED` outcome, with a ``retry_after`` hint
  telling the tenant when one token will be available again;
* a **bounded service queue** — requests admitted by their bucket but
  arriving faster than the scheduler drains its micro-batches are
  :data:`SHED` (503-style) once the backlog reaches ``queue_limit``,
  protecting the daemon's latency instead of queueing unboundedly.

Both gates are deterministic functions of the service's *virtual* clock,
so an accelerated trace replay exercises exactly the admission decisions
a real-time run would make.  The design follows the multi-tenant
admission-controller / credit-service split described in PAPERS.md: the
bucket is the per-tenant credit ledger, the bounded queue is the global
overload valve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.util.validation import ensure_finite, ensure_non_negative, ensure_positive

#: Admission outcomes (mirrored by the HTTP status codes in
#: :mod:`repro.serve.protocol`).
ADMITTED = "admitted"
REJECTED = "rejected"  # per-tenant quota exhausted -> HTTP 429
SHED = "shed"  # service queue full -> HTTP 503


def _ensure_whole_token(burst: float, name: str) -> None:
    """Refuse a bucket capacity below one token.

    Every request spends one whole token, so a smaller bucket would
    reject every request forever, each time with a ``retry_after`` that
    never comes true.
    """
    ensure_finite(burst, name)
    if not burst >= 1.0:
        raise ValueError(
            f"{name} must be >= 1 (a request spends one whole token), got {burst}"
        )


@dataclass(frozen=True)
class AdmissionDecision:
    """One gate decision for one submission."""

    status: str
    tenant: str
    #: Seconds (virtual) until a retry could be admitted; 0 when admitted
    #: or when shedding (the queue drains on its own schedule).
    retry_after: float = 0.0
    reason: str = ""

    @property
    def admitted(self) -> bool:
        """Whether the request may enter the scheduling queue."""
        return self.status == ADMITTED


class TokenBucket:
    """A continuously refilling token bucket on an external clock.

    >>> bucket = TokenBucket(rate=1.0, burst=2.0)
    >>> bucket.take(now=0.0), bucket.take(now=0.0), bucket.take(now=0.0)
    (True, True, False)
    >>> bucket.take(now=1.0)  # one token refilled after one second
    True
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated_at")

    def __init__(self, rate: float, burst: float) -> None:
        ensure_positive(rate, "rate")
        _ensure_whole_token(burst, "burst")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._updated_at = 0.0

    def _refill(self, now: float) -> None:
        if now > self._updated_at:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated_at) * self.rate
            )
            self._updated_at = now

    def take(self, *, now: float) -> bool:
        """Spend one token at time ``now``; ``False`` when none is left.

        ``now`` may not go backwards between calls (the service clock is
        monotone); a stale ``now`` simply refills nothing.
        """
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def tokens_at(self, now: float) -> float:
        """Tokens available at time ``now`` (without spending any)."""
        return min(self.burst, self._tokens + max(now - self._updated_at, 0.0) * self.rate)

    def seconds_until_token(self, now: float) -> float:
        """Virtual seconds from ``now`` until one full token is available.

        Exact in the clock's own arithmetic: a :meth:`take` at
        ``now + seconds_until_token(now)`` finds a whole token, even
        where dividing the deficit by the rate rounds a few ulps short.

        >>> bucket = TokenBucket(rate=3.0, burst=3.1)
        >>> [bucket.take(now=0.148) for _ in range(4)]
        [True, True, True, False]
        >>> bucket.take(now=0.148 + bucket.seconds_until_token(0.148))
        True
        """
        available = self.tokens_at(now)
        if available >= 1.0:
            return 0.0
        wait = (1.0 - available) / self.rate
        while self.tokens_at(now + wait) < 1.0:
            wait += math.ulp(now + wait)
        return wait


@dataclass
class TenantStats:
    """Per-tenant admission counters."""

    admitted: int = 0
    rejected: int = 0
    shed: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"admitted": self.admitted, "rejected": self.rejected, "shed": self.shed}


@dataclass
class AdmissionController:
    """Both gates plus their bookkeeping.

    Parameters
    ----------
    quota_rate:
        Tokens refilled per virtual second, per tenant.  ``math.inf``
        disables the quota gate (every tenant always has a token) — the
        configuration trace-replay determinism tests run under.
    quota_burst:
        Bucket capacity per tenant (initial allowance).
    queue_limit:
        Maximum backlog the service accepts before shedding; ``0``
        disables the queue gate.
    """

    quota_rate: float = math.inf
    quota_burst: float = 64.0
    queue_limit: int = 0
    _buckets: dict[str, TokenBucket] = field(default_factory=dict, repr=False)
    _tenants: dict[str, TenantStats] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        ensure_non_negative(self.queue_limit, "queue_limit")
        for name in ("quota_burst", "quota_rate"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        _ensure_whole_token(self.quota_burst, "quota_burst")

    @property
    def unlimited(self) -> bool:
        """Whether the quota gate is disabled."""
        return math.isinf(self.quota_rate)

    def _stats(self, tenant: str) -> TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = TenantStats()
        return stats

    def admit(self, tenant: str, *, now: float, queue_depth: int) -> AdmissionDecision:
        """Run both gates for one submission from ``tenant`` at time ``now``.

        ``queue_depth`` is the service's current admitted-but-unplaced
        backlog.  The queue gate runs first: a shed request does not spend
        a quota token (the tenant did nothing wrong — the service is
        overloaded).
        """
        stats = self._stats(tenant)
        if self.queue_limit and queue_depth >= self.queue_limit:
            stats.shed += 1
            return AdmissionDecision(
                status=SHED,
                tenant=tenant,
                reason=f"service queue full ({queue_depth}/{self.queue_limit})",
            )
        if not self.unlimited:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    rate=self.quota_rate, burst=self.quota_burst
                )
            if not bucket.take(now=now):
                stats.rejected += 1
                return AdmissionDecision(
                    status=REJECTED,
                    tenant=tenant,
                    retry_after=bucket.seconds_until_token(now),
                    reason="tenant quota exhausted",
                )
        stats.admitted += 1
        return AdmissionDecision(status=ADMITTED, tenant=tenant)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Per-tenant counters, keyed by tenant name (sorted)."""
        return {name: self._tenants[name].as_dict() for name in sorted(self._tenants)}

    def totals(self) -> dict[str, int]:
        """Aggregate admitted/rejected/shed counters across tenants."""
        totals = {"admitted": 0, "rejected": 0, "shed": 0}
        for stats in self._tenants.values():
            totals["admitted"] += stats.admitted
            totals["rejected"] += stats.rejected
            totals["shed"] += stats.shed
        return totals
