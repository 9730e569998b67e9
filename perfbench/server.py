"""The server under test as a child process.

The child is the real entry point, ``python -m repro.net serve`` with
CLI defaults (or the traced launcher, which calls the same entry).  It
is stopped with SIGINT, which ``serve`` turns into a clean shutdown, and
reaped before the benchmark goes on.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import AbstractSet, Optional, Sequence, Tuple

_LISTENING = re.compile(rb"serving \S+ on ([\d.]+):(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


def place() -> Tuple[Optional[AbstractSet[int]], Optional[AbstractSet[int]]]:
    """Pin this process to one allowed CPU; return ``(server CPUs,
    generator CPUs)``, or ``(None, None)`` with fewer than two CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    server, generator = {cpus[0]}, {cpus[1]}
    os.sched_setaffinity(0, generator)
    return server, generator


class ServerProcess:
    """One server child: spawn, wait until listening, read /proc, stop."""

    def __init__(self, argv: Sequence[str], root: str,
                 cpus: Optional[AbstractSet[int]] = None):
        self.argv = [sys.executable, *argv]
        self.root = root
        self.cpus = cpus
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.listen_s = 0.0

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=env,
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            preexec_fn=self._prepare_child,
        )
        deadline = time.monotonic() + timeout
        line = b""
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _LISTENING.search(line)
            if match:
                self.host = match.group(1).decode()
                self.port = int(match.group(2))
                self.listen_s = time.perf_counter() - began
                return self
        self.stop()
        raise RuntimeError(f"server did not start listening: {line!r}")

    def _prepare_child(self) -> None:
        """Runs in the child before exec."""
        # A shell that starts a job in the background ignores SIGINT for
        # it, and an ignored SIGINT survives exec: the server would then
        # never see the SIGINT that stops it.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        # Set before exec, so every thread the server starts inherits it.
        if self.cpus is not None:
            os.sched_setaffinity(0, self.cpus)

    def cpu_s(self) -> float:
        """User + system CPU seconds of the child so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        """The child's ``VmHWM`` in MB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGINT, wait, SIGKILL as the last resort; returns the exit code."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            proc.stdout.close()
        return proc.returncode

