"""The import surface: each entry point loads only the modules its work runs.

Every case runs in a fresh interpreter, so it starts with a clean
``sys.modules``: what a case finds loaded is what its own code imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules neither ``import repro.cli`` nor the daemon's set-up may load:
#: the numeric stack, the distribution metadata, Algorithm 1 and the batch
#: machinery.
NOT_ON_THE_SERVE_PATH = (
    "numpy",
    "importlib.metadata",
    "repro.core.candidate_selection",
    "repro.experiments.adaptive",
    "repro.experiments.greenperf_eval",
    "repro.runner.executor",
    "repro.runner.grids",
    "repro.runner.spec",
    "repro.runner.store",
    "repro.workload.ingest",
)


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=False,
    )


def _loaded(code: str) -> dict:
    """Run ``code``; it prints a JSON object as its last line, returned here."""
    finished = _python("-c", textwrap.dedent(code))
    assert finished.returncode == 0, finished.stderr
    return json.loads(finished.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_command_module():
    loaded = _loaded(f"""
        import json, sys
        import repro.cli
        print(json.dumps({{"found": [m for m in {NOT_ON_THE_SERVE_PATH!r} if m in sys.modules]}}))
    """)
    assert loaded["found"] == []


def test_the_daemon_sets_up_and_answers_without_batch_modules():
    loaded = _loaded(f"""
        import asyncio, json, sys
        from repro.cli import build_parser
        from repro.experiments.presets import PLATFORM_PRESETS
        from repro.lab import LabSession, PlatformSource, PolicySource, WorkloadSource
        from repro.serve.protocol import read_response, render_request
        from repro.serve.service import PlacementService

        build_parser()
        session = LabSession(
            platform=PlatformSource.table1(PLATFORM_PRESETS["paper"]),
            workload=WorkloadSource.served(),
            policy=PolicySource("GREENPERF"),
            trace_level="off",
        )
        service = PlacementService(session.open_state(), port=0)
        found = [m for m in {NOT_ON_THE_SERVE_PATH!r} if m in sys.modules]

        async def answer_one():
            await service.start()
            listening = set(sys.modules)
            host, port = service.address.rsplit(":", 1)
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(render_request("POST", "/submit", {{"tenant": "t", "flop": 1e9}}))
            await writer.drain()
            status, _ = await read_response(reader)
            writer.close()
            await service.stop()
            return status, sorted(set(sys.modules) - listening)

        status, late = asyncio.run(answer_one())
        print(json.dumps({{"found": found, "status": status, "late": late}}))
    """)
    assert loaded["found"] == []
    assert loaded["status"] == 200
    assert loaded["late"] == []  # nothing is imported on the request path


def test_every_public_name_of_every_package_resolves():
    packages = sorted(
        ".".join(path.relative_to(SRC).parent.parts)
        for path in (SRC / "repro").rglob("__init__.py")
    )
    loaded = _loaded(f"""
        import importlib, json
        unresolved, count = [], 0
        for name in {packages!r}:
            package = importlib.import_module(name)
            for public in getattr(package, "__all__", ()):
                count += 1
                try:
                    getattr(package, public)
                except AttributeError as error:
                    unresolved.append(f"{{name}}.{{public}}: {{error}}")
        print(json.dumps({{"unresolved": unresolved, "count": count}}))
    """)
    assert loaded["unresolved"] == []
    assert loaded["count"] > 150


def test_a_package_export_resolves_to_its_defining_module():
    loaded = _loaded("""
        import json, sys
        import repro.core
        before = "repro.core.policies" in sys.modules
        from repro.core import policy_by_name
        print(json.dumps({"before": before, "module": policy_by_name.__module__,
                          "cached": "policy_by_name" in vars(repro.core)}))
    """)
    assert loaded == {"before": False, "module": "repro.core.policies", "cached": True}


def test_an_unknown_package_name_raises_attribute_error():
    loaded = _loaded("""
        import json
        import repro.lab
        try:
            repro.lab.NoSuchName
        except AttributeError as error:
            print(json.dumps({"error": str(error)}))
    """)
    assert loaded["error"] == "module 'repro.lab' has no attribute 'NoSuchName'"


def test_version_flag_prints_the_version():
    expected = _loaded("""
        import json
        from importlib.metadata import PackageNotFoundError, version
        from repro._version import _VERSION
        try:
            text = version("repro-green-scheduling")
        except PackageNotFoundError:
            text = _VERSION
        print(json.dumps({"version": text}))
    """)["version"]
    finished = _python("-m", "repro", "--version")
    assert (finished.returncode, finished.stdout, finished.stderr) == (0, f"repro {expected}\n", "")
