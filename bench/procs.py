"""Child processes of the benchmark: spawn, await a line, reap.

Every process the benchmark starts goes through :class:`Proc`, which
times spawn → first matching output line (the set-up time), drains the
child's stdout on a thread so the child never blocks on a full pipe, and
always kills and reaps the child when the parent is done with it.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"


class BenchError(RuntimeError):
    """A child process failed or missed its deadline."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    # Fixed string hashing keeps set/dict layouts, and so timings, repeatable.
    env["PYTHONHASHSEED"] = "0"
    return env


class Proc:
    """One child process whose stdout lines arrive on a queue."""

    def __init__(self, args: list[str]) -> None:
        self.started = time.perf_counter()
        self.popen = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.stderr: list[str] = []
        self._readers = [
            threading.Thread(target=self._pump, args=(self.popen.stdout, self.lines.put)),
            threading.Thread(target=self._pump, args=(self.popen.stderr, self.stderr.append)),
        ]
        for reader in self._readers:
            reader.start()

    @staticmethod
    def _pump(stream, sink) -> None:
        for line in stream:
            sink(line)
        sink(None)

    def wait_line(self, prefix: str, timeout: float) -> tuple[str, float]:
        """The first stdout line starting with ``prefix`` and its delay since spawn."""
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"no {prefix!r} line within {timeout:.0f} s")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise BenchError(f"child exited before {prefix!r}:\n{self.error_text()}")
            if line.startswith(prefix):
                return line, time.perf_counter() - self.started

    def finish(self, timeout: float) -> list[str]:
        """Wait for exit; returns the remaining stdout lines.  Raises on failure."""
        try:
            code = self.popen.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"child still running after {timeout:.0f} s") from None
        for reader in self._readers:
            reader.join()
        lines = []
        while True:
            line = self.lines.get()
            if line is None:
                break
            lines.append(line.rstrip("\n"))
        if code != 0:
            raise BenchError(f"child exited with {code}:\n{self.error_text()}")
        return lines

    def kill(self) -> None:
        if self.popen.poll() is None:
            self.popen.kill()
        self.popen.wait()
        for reader in self._readers:
            reader.join()

    def error_text(self) -> str:
        return "".join(line for line in self.stderr if line)[-4000:]
