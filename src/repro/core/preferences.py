"""Provider and user preference models (Section III-B).

Provider preference (Equation 1)
    ``Preference_provider(u, c) = α·(1 − c) + β·u`` with ``c`` the
    electricity-cost ratio and ``u`` the resource-utilisation ratio, both
    in ``[0, 1]``.  The higher the preference, the larger the number of
    servers made available for a time period.

User preference (Equation 2)
    ``Preference_user ∈ [−1, 1]``: −1 maximises performance, 0 expresses
    no preference, +1 maximises energy efficiency.  "In practice it is
    better to restrict the value to [−0.9, 0.9]" to avoid waiting queues on
    the most energy-efficient nodes, so the score-based scheduler clamps
    it to :data:`PRACTICAL_USER_BOUND`.

Combination (Equation 3)
    ``(P_provider, P_user) ⇔ P_provider · (P_user − 1)`` — the user's
    preference weighted by the administrator's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import ensure_in_range, ensure_non_negative

#: Practical clamp recommended by the paper for the user preference.
PRACTICAL_USER_BOUND = 0.9


@dataclass(frozen=True)
class ProviderPreference:
    """Weighted average of electricity cost and resource utilisation.

    Parameters
    ----------
    alpha:
        Weight of the (1 − electricity-cost) term.
    beta:
        Weight of the utilisation term.

    The paper requires the result to stay in ``[0, 1]``, which holds as
    long as ``alpha + beta <= 1`` (both weights non-negative); the
    constructor enforces that.
    """

    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        ensure_non_negative(self.alpha, "alpha")
        ensure_non_negative(self.beta, "beta")
        if self.alpha + self.beta > 1.0 + 1e-12:
            raise ValueError(
                f"alpha + beta must be <= 1 to keep the preference in [0, 1], "
                f"got {self.alpha} + {self.beta}"
            )
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValueError("at least one of alpha, beta must be positive")

    def value(self, utilization: float, electricity_cost: float) -> float:
        """Evaluate Equation 1 for the given utilisation and cost ratios."""
        ensure_in_range(utilization, "utilization", 0.0, 1.0)
        ensure_in_range(electricity_cost, "electricity_cost", 0.0, 1.0)
        return self.alpha * (1.0 - electricity_cost) + self.beta * utilization


@dataclass(frozen=True)
class UserPreference:
    """A user's energy/performance preference (Equation 2)."""

    value: float = 0.0

    def __post_init__(self) -> None:
        ensure_in_range(self.value, "user preference", -1.0, 1.0)


def combine_preferences(provider: float, user: float) -> float:
    """Equation 3: the user preference weighted by the provider's.

    ``provider`` must be in ``[0, 1]`` and ``user`` in ``[-1, 1]``.  The
    result, ``provider * (user - 1)``, lies in ``[-2, 0]``: it is 0 when the
    provider exposes no energy constraint and grows in magnitude as both
    the provider's energy concern and the user's performance orientation
    increase.
    """
    ensure_in_range(provider, "provider preference", 0.0, 1.0)
    ensure_in_range(user, "user preference", -1.0, 1.0)
    return provider * (user - 1.0)
