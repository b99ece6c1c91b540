"""Equations 4–6 as scalar functions: the oracle ``ScoreKernel`` is checked against.

Each function checks its inputs with the validators and computes in the
association the paper writes the equation in, so a kernel result equal
to theirs is equal bit for bit.
"""

from __future__ import annotations

from repro.core.scoring import preference_exponent
from repro.util.validation import ensure_non_negative, ensure_positive


def completion_time(
    flop: float,
    flops_per_second: float,
    *,
    active: bool,
    waiting_time: float = 0.0,
    boot_time: float = 0.0,
) -> float:
    """Equation 4: expected completion time of a task on a server (s)."""
    ensure_non_negative(flop, "flop")
    ensure_positive(flops_per_second, "flops_per_second")
    ensure_non_negative(waiting_time, "waiting_time")
    ensure_non_negative(boot_time, "boot_time")
    execution = flop / flops_per_second
    if active:
        return waiting_time + execution
    return boot_time + execution


def energy_consumption(
    flop: float,
    flops_per_second: float,
    *,
    active: bool,
    full_load_power: float,
    boot_time: float = 0.0,
    boot_power: float = 0.0,
) -> float:
    """Equation 5: expected energy of a task on a server (J)."""
    ensure_non_negative(flop, "flop")
    ensure_positive(flops_per_second, "flops_per_second")
    ensure_non_negative(full_load_power, "full_load_power")
    ensure_non_negative(boot_time, "boot_time")
    ensure_non_negative(boot_power, "boot_power")
    execution_energy = full_load_power * flop / flops_per_second
    if active:
        return execution_energy
    return boot_time * boot_power + execution_energy


def score(time: float, energy: float, user_preference: float) -> float:
    """Equation 6: the server score ``Sc`` (lower is better)."""
    ensure_positive(time, "time")
    ensure_non_negative(energy, "energy")
    return time ** preference_exponent(user_preference) * energy
