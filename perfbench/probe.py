"""Host-speed probe: times a fixed pure-Python loop on the server's CPU.

On a shared host the CPU the server runs on changes speed by up to
about 1.6x for seconds to minutes at a time, with steal time near 0;
the server's CPU time grows with it, so it is the host, not the
program, that is slower.  The probe runs next to the
server, pinned to the same CPU, and every ``PERIOD_S`` records how much
CPU time ``LOOP`` iterations of a fixed loop take; the benchmark scales
each window's timings by the probe's median in that window.

Run as a child process (``python3 probe.py``): it samples until its
standard input closes, then prints its samples as one JSON list of
``[perf_counter_ns, ms]`` pairs and exits.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from typing import AbstractSet, List, Optional, Tuple

#: Iterations of the timed loop (about 0.45 ms of CPU on the 2-core host).
LOOP = 5_000
#: Pause between two loops; the probe takes about 1% of the server's CPU.
PERIOD_S = 0.04


class HostProbe:
    """The probe child: start it pinned to ``cpus``, stop it for its
    samples."""

    def __init__(self, cpus: Optional[AbstractSet[int]]):
        self.cpus = cpus
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> "HostProbe":
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            preexec_fn=None if self.cpus is None
            else lambda: os.sched_setaffinity(0, self.cpus),
        )
        return self

    def stop(self) -> List[Tuple[int, float]]:
        """Close the probe's input, read its samples and reap it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return []
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"host probe exited with {proc.returncode}")
        return [(ns, ms) for ns, ms in json.loads(out)]


def sample() -> None:
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        began = time.thread_time()
        total = 0
        for value in range(LOOP):
            total += value * value
        samples.append((time.perf_counter_ns(),
                        (time.thread_time() - began) * 1e3))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    sample()
