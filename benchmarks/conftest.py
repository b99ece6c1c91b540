"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at the
paper's own scale (the 12-node Table I platform, 10 requests per core,
the 260-minute adaptive scenario) from the same grid the CLI runs.  The
``*_report`` helpers print the reproduced rows/series so a
``pytest benchmarks/ --benchmark-only -s`` run shows output directly
comparable to the paper.
"""

from __future__ import annotations

import pytest

from repro.runner.grids import table2_grid


@pytest.fixture(scope="session")
def table2_specs():
    """The paper-scale placement grid of Table II and Figures 2–5, by policy."""
    return {spec.policy: spec for spec in table2_grid()}
