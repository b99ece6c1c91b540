"""Fixtures shared by the runner tests."""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest

import repro.runner.spec as spec_module


@pytest.fixture
def spec_digests(monkeypatch):
    """Count the SHA-256 digests :mod:`repro.runner.spec` computes.

    The returned list gains one entry per ``hashlib.sha256`` call made
    by the spec module (content hashes and trace file hashes alike).
    """
    calls = []

    def counting_sha256(*args):
        calls.append(args)
        return hashlib.sha256(*args)

    monkeypatch.setattr(spec_module, "hashlib", SimpleNamespace(sha256=counting_sha256))
    return calls
