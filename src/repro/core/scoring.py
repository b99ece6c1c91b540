"""Completion-time, energy and score models (Equations 4–6).

For a task ``i`` of ``n_i`` FLOPs on a server ``s`` the paper defines:

Equation 4 — completion time::

    time = w_s + n_i / f_s          if the server is active
    time = bt_s + n_i / f_s         if the server is inactive (must boot)

Equation 5 — energy consumption::

    energy = c_s * n_i / f_s                    if active
    energy = bt_s * bc_s + c_s * n_i / f_s      if inactive

Equation 6 — score (lower is better)::

    Sc = time ** (2 / (P + 1) - 1) * energy

where ``P`` is the (clamped) user preference.  Equation 7 sanity-checks
the exponent: P → −0.9 makes the score time-dominated, P → 0 yields
time × energy, P → +0.9 makes it energy-dominated.
"""

from __future__ import annotations

import math

from repro.core.preferences import PRACTICAL_USER_BOUND
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.util.validation import ensure_in_range, ensure_non_negative, ensure_positive


def preference_exponent(user_preference: float) -> float:
    """The exponent ``2 / (P + 1) − 1`` of Equation 6.

    The user preference is clamped to the practical ``[-0.9, 0.9]`` range
    before use, which keeps the exponent finite (P = −1 would make it blow
    up) — exactly the reason the paper recommends the clamp.
    """
    ensure_in_range(user_preference, "user preference", -1.0, 1.0)
    clamped = max(-PRACTICAL_USER_BOUND, min(PRACTICAL_USER_BOUND, user_preference))
    return 2.0 / (clamped + 1.0) - 1.0


_INF = math.inf


_POWER = EstimationTags.MEAN_POWER


def server_inputs(
    vector: EstimationVector,
) -> tuple[float, float, float, float, float, bool] | None:
    """The request-independent inputs of Equations 4–5, or ``None``.

    ``c_s`` is the dynamic mean-power estimate.  Returns
    ``(f_s, c_s, w_s, bt_s, bc_s, active)`` when every input is an
    exact, finite, in-range float — :class:`ScoreKernel`'s fast path.  Any
    other vector (a missing tag, an int, a negative value) gives ``None``
    without raising: :meth:`ScoreKernel.evaluate` then reads and checks it
    through the validators when it is scored.
    """
    values = vector.values
    flops = values.get(EstimationTags.FLOPS_PER_CORE)
    power = values.get(_POWER)
    waiting = values.get(EstimationTags.WAITING_TIME, 0.0)
    boot_time = values.get(EstimationTags.BOOT_TIME, 0.0)
    boot_power = values.get(EstimationTags.BOOT_POWER, 0.0)
    if (
        type(flops) is type(waiting) is type(boot_time) is float
        and type(power) is type(boot_power) is float
        and 0.0 < flops < _INF
        and 0.0 <= waiting < _INF
        and 0.0 <= boot_time < _INF
        and 0.0 <= power < _INF
        and 0.0 <= boot_power < _INF
    ):
        active = values.get(EstimationTags.NODE_AVAILABLE, 0.0) >= 0.5
        return flops, power, waiting, boot_time, boot_power, active
    return None


class ScoreKernel:
    """Equations 4–6 for one request, evaluated server by server.

    The request constants are computed once: the checked flop count and
    the Equation 6 exponent, preference clamp included.
    :meth:`evaluate_inputs` then scores one server's :func:`server_inputs`
    in plain float arithmetic, in the association the equations are
    written in: ``w_s + n_i / f_s`` (or ``bt_s + n_i / f_s``) for the
    time, ``c_s * n_i / f_s`` (plus ``bt_s * bc_s`` while booting) for the
    energy and ``time ** exponent * energy`` for the score.
    :meth:`evaluate` reads the inputs from an estimation vector and checks
    them with the validators, raising their
    :class:`ValueError`/:class:`TypeError` on the first bad input in the
    order flop, ``f_s``, ``w_s``, ``bt_s``, ``c_s``, ``bc_s``, then time
    and energy.  The request-level checks (flop, preference) run before
    any server's.

    Equation 7's sanity claims: a fast, power-hungry server and a slow,
    frugal one (time 2 s / energy 600 J against 4 s / 200 J).

    >>> def server(name, flops, power):
    ...     return EstimationVector(name, "c", {
    ...         EstimationTags.FLOPS_PER_CORE: flops,
    ...         EstimationTags.MEAN_POWER: power,
    ...         EstimationTags.NODE_AVAILABLE: 1.0,
    ...     })
    >>> fast, frugal = server("fast", 2e9, 300.0), server("frugal", 1e9, 50.0)
    >>> def best(preference):
    ...     kernel = ScoreKernel(4e9, preference)
    ...     return min((kernel.evaluate(s)[2], s.server) for s in (fast, frugal))[1]
    >>> ScoreKernel(4e9, 0.0).evaluate(fast)  # P = 0: exponent 1, time × energy
    (2.0, 600.0, 1200.0)
    >>> best(-0.9), round(ScoreKernel(4e9, -0.9).exponent, 6)  # time dominates
    ('fast', 19.0)
    >>> best(0.0)
    'frugal'
    >>> best(0.9), round(ScoreKernel(4e9, 0.9).exponent, 6)  # energy dominates
    ('frugal', 0.052632)
    >>> best(-1.0) == best(-0.9)  # the practical clamp keeps the exponent finite
    True
    """

    __slots__ = ("flop", "exponent")

    def __init__(self, flop: float, user_preference: float) -> None:
        ensure_non_negative(flop, "flop")
        self.flop = flop
        self.exponent = preference_exponent(user_preference)

    def evaluate(self, vector: EstimationVector) -> tuple[float, float, float]:
        """``(time, energy, score)`` of one server (Equations 4, 5 and 6).

        ``active`` servers (powered on) pay their waiting queue; inactive
        servers pay their boot time and boot energy.
        """
        inputs = server_inputs(vector)
        if inputs is not None:
            return self.evaluate_inputs(*inputs)
        # Not exact in-range floats: the validators, in the order above,
        # raise their usual error or accept the value (ints, numpy floats).
        values = vector.values
        if EstimationTags.FLOPS_PER_CORE in values and _POWER in values:
            flops = values[EstimationTags.FLOPS_PER_CORE]
            power = values[_POWER]
        else:  # the vector's own KeyError, for the first missing tag
            flops = vector.get(EstimationTags.FLOPS_PER_CORE)
            power = vector.get(_POWER)
        waiting = values.get(EstimationTags.WAITING_TIME, 0.0)
        boot_time = values.get(EstimationTags.BOOT_TIME, 0.0)
        boot_power = values.get(EstimationTags.BOOT_POWER, 0.0)
        ensure_positive(flops, "flops_per_second")
        ensure_non_negative(waiting, "waiting_time")
        ensure_non_negative(boot_time, "boot_time")
        ensure_non_negative(power, "full_load_power")
        ensure_non_negative(boot_power, "boot_power")
        active = values.get(EstimationTags.NODE_AVAILABLE, 0.0) >= 0.5
        return self.evaluate_inputs(flops, power, waiting, boot_time, boot_power, active)

    def evaluate_inputs(
        self,
        flops: float,
        power: float,
        waiting: float,
        boot_time: float,
        boot_power: float,
        active: bool,
    ) -> tuple[float, float, float]:
        """``(time, energy, score)`` from :func:`server_inputs` or checked values."""
        flop = self.flop
        execution = flop / flops
        energy = power * flop / flops
        if active:
            time = waiting + execution
        else:
            time = boot_time + execution
            energy = boot_time * boot_power + energy
        if not (
            type(time) is type(energy) is float
            and 0.0 < time < _INF
            and 0.0 <= energy < _INF
        ):
            ensure_positive(time, "time")
            ensure_non_negative(energy, "energy")
        return time, energy, time**self.exponent * energy
