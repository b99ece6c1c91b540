"""How fast the host runs right now, from a fixed pure-Python loop.

On a shared host the CPU's speed moves with what the other tenants run:
the same operation can take half as long again from one minute to the next,
with no time stolen and no preemption visible from inside, so neither
wall time nor CPU time can tell a slower program from a slower host.  A
fixed loop can: it does the same work every time and runs none of the
program's code, so only the host changes its duration.

Every interval the benchmark times is bracketed by one run of the loop
before and one after, and reported at the reference speed::

    interval × REFERENCE_S / mean(loop before, loop after)

A slower program lengthens the interval but not the loop, so it shows in
full; a slower host lengthens both, and cancels.  Besides one small dict
the loop allocates only integers, which the garbage collector does not
track, so the program's heap cannot change its duration.
"""

from __future__ import annotations

import time
from collections.abc import Awaitable, Callable
from typing import TypeVar

T = TypeVar("T")

LOOP_ITERATIONS = 200_000
#: Seconds the loop takes on the reference host: about the fastest it ran
#: on a 2-core x86-64 container (Intel Xeon, 2.0 GHz).
REFERENCE_S = 0.023


def loop_s() -> float:
    """Run the fixed loop once; its wall seconds."""
    started = time.perf_counter()
    total, table = 0, {}
    for index in range(LOOP_ITERATIONS):
        table[index % 1000] = total
        total += index * 3 % 7
    return time.perf_counter() - started


def speed(before: float, after: float) -> float:
    """The host's speed between two loop runs, as a share of the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)


def timed(fn: Callable[[], T]) -> tuple[T, float, float]:
    """``fn()`` bracketed by the loop: (its result, wall seconds, host speed)."""
    before = loop_s()
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    return result, wall, speed(before, loop_s())


async def timed_async(awaitable: Awaitable[T]) -> tuple[T, float]:
    """Await ``awaitable`` bracketed by the loop: (its result, host speed).

    The loop blocks the event loop, so it runs only while nothing else of
    the caller's is in flight.
    """
    before = loop_s()
    result = await awaitable
    return result, speed(before, loop_s())
