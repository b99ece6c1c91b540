"""Greedy candidate-server selection (Algorithm 1).

"When creating a list of candidate nodes, we aim to minimize the total
energy consumed by the active servers by maximizing the use of the most
energy efficient servers" (Section III-C).  Algorithm 1:

1. ``P_Total`` — the accumulated power of every server;
2. ``P_required = Preference_provider × P_Total`` — the power budget;
3. walk the GreenPerf-sorted server list, adding servers until the
   accumulated power reaches the budget.

The function below keeps the paper's semantics: the first server whose
addition crosses the budget is still included, because the ``while`` loop
tests *before* adding.  With positive powers, a positive budget therefore
always selects at least one server.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.greenperf import GreenPerfRanking, RankedServer
from repro.util.validation import ensure_in_range


def select_candidate_servers(
    ranking: GreenPerfRanking | Sequence[RankedServer],
    provider_preference: float,
) -> tuple[RankedServer, ...]:
    """Run Algorithm 1 over a GreenPerf-sorted server list.

    Parameters
    ----------
    ranking:
        Servers sorted by ascending GreenPerf (``T`` in the paper).
    provider_preference:
        ``Preference_provider`` in ``[0, 1]``; the fraction of the total
        power the candidate set may draw.

    Returns
    -------
    The selected servers (``RES``), still in GreenPerf order.
    """
    ensure_in_range(provider_preference, "provider_preference", 0.0, 1.0)
    entries: Sequence[RankedServer] = (
        ranking.entries if isinstance(ranking, GreenPerfRanking) else tuple(ranking)
    )
    if not entries:
        return ()

    total_power = sum(entry.power for entry in entries)
    required_power = provider_preference * total_power

    selected: list[RankedServer] = []
    accumulated = 0.0
    for entry in entries:
        if accumulated >= required_power:
            break
        selected.append(entry)
        accumulated += entry.power
    return tuple(selected)

