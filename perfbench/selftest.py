"""Self-tests of the serving benchmark, at smoke size.

Run from the repository root::

    python3 perfbench/selftest.py [workload ...]

For each workload it checks that

* ``run.py --trace 0`` and ``--trace 1`` emit every metric that
  ``BENCHMARK.json`` names, with its unit, and exit 0;
* a wrong expected payload, injected on purpose, is caught and counted
  by both the timed read path and the read-back;
* a server that answers every read with an error reply makes the run
  incorrect;
* in the traced run, the span self times of every request plus its
  residual add up to the client-observed latency;

and once, that ``definition.json`` maps every per-layer metric and
workload of ``BENCHMARK.json``, and that ``run.py`` exits non-zero
without a result in a directory that holds only ``BENCHMARK.json`` and
the benchmark.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
from loadgen import run_phase  # noqa: E402
from spans import SpanIndex, self_times  # noqa: E402
from workload import CHUNK, WORKLOADS_DEF, Request, build_streams, digest  # noqa: E402

SECONDS = 1.0

#: ``repro.net serve`` with every read answered by an ERROR reply.
FAILING_READS_SERVER = """
import sys
from repro.errors import ReproError
from repro.net import __main__ as net_main
from repro.systems.server import StorageServer

def refuse(self, lba, num_chunks=1):
    raise ReproError("reads refused for the self-test")

StorageServer.read = refuse
sys.exit(net_main.main(sys.argv[1:]))
"""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run_cli(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metrics(workload: str) -> None:
    """Every named metric is emitted, by name and with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = run_cli(ROOT, workload, trace)
        check(done.returncode == 0, f"{workload} trace {trace}: rc "
              f"{done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        check(result["correct"] and result["failed"] == 0,
              f"{workload} trace {trace}: {result}")
        for metric in spec[key]:
            name, unit = metric["name"], metric["unit"]
            got = result["metrics"].get(name)
            check(got is not None and got["unit"] == unit,
                  f"{workload} trace {trace}: {name} missing or not in {unit}")
            check(any(line.split()[:1] == [name] and line.split()[-1] == unit
                      for line in lines[:-1]),
                  f"{workload} trace {trace}: {name} not printed with {unit}")
        check(len(result["metrics"]) == len(spec[key]),
              f"{workload} trace {trace}: unexpected extra metrics")
    print(f"  {workload}: every metric emitted with its unit")


async def check_injected_mismatch(workload) -> None:
    """A wrong expected payload is caught and counted, timed and read-back."""
    streams = build_streams(workload, 7, SECONDS)
    connected = await bench.connect_server(workload, streams)
    try:
        phase = await run_phase(connected.connections, streams.timed, SECONDS)
        check(phase.failed == 0 and phase.mismatches == 0, "clean phase failed")
        connection = connected.connections[0]
        lba = min(connection.expected)
        connection.expected[lba] = digest(bytes([0x5A]) * CHUNK)
        sample = await connection.send(Request(False, lba), phase)
        check(not sample.ok and phase.mismatches == 1 and phase.failed == 1,
              "timed read of a wrong expected payload was not counted")
        readback = await bench.read_back(connected.connections)
        check(readback.mismatches == 1 and readback.failed == 1,
              "read-back missed the injected mismatch")
    finally:
        await connected.close()
    print(f"  {workload.name}: injected mismatch caught by read and read-back")


async def check_read_errors(workload) -> None:
    """Reads answered with errors fail the run, timed or untimed."""
    streams = build_streams(workload, 7, SECONDS)
    try:
        connected = await bench.connect_server(
            workload, streams, ["-c", FAILING_READS_SERVER])
    except RuntimeError as error:
        # A warm-up with reads in it already fails the set-up.
        check("warm-up operations failed" in str(error), str(error))
        print(f"  {workload.name}: refused warm-up reads fail the set-up")
        return
    try:
        measured = await bench.timed(connected, workload, streams, SECONDS,
                                     check=True)
    finally:
        await connected.close()
    reads = [s for p in measured.phases for s in p.samples if not s.is_write]
    check(reads and not any(s.ok for s in reads), "a refused read passed")
    result = bench.verdict([measured])
    check(not result["correct"] and result["failed"] >= len(reads),
          f"refused reads did not fail the run: {result}")
    print(f"  {workload.name}: {len(reads)} refused reads fail the run")


async def check_attribution(workload) -> None:
    """Self times plus residual equal the client latency, per request."""
    streams = build_streams(workload, 7, SECONDS)
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        measured, spans = await bench.measure_traced(
            workload, streams, SECONDS, os.path.join(work, "spans.marshal"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    index = SpanIndex(spans)
    samples = [s for s in measured.phase.samples if s.ok]
    check(samples, "no traced samples")
    for sample in samples:
        tree = index.tree(sample.request_id, sample.lba,
                          sample.sent_ns, sample.done_ns)
        check(tree is not None, f"no spans for request {sample.request_id}")
        parts: dict = {}
        self_times(tree, parts)
        check(all(ns >= 0 for ns in parts.values()), f"negative self time {parts}")
        check(sum(parts.values()) == sample.done_ns - sample.sent_ns,
              f"self times {parts} do not add up to the latency")
        check(len(tree.children[2].children) > 0, "dispatch span has no children")
    print(f"  {workload.name}: self times + residual = latency "
          f"for {len(samples)} requests")


def check_definition() -> None:
    """definition.json maps every per-layer metric and every workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "definition.json")) as handle:
        definition = json.load(handle)
    mapped = [m for entry in definition["layer_map"] for m in entry["metrics"]]
    check(sorted(mapped) == sorted(m["name"] for m in spec["per_layer"]),
          "layer_map and BENCHMARK.json per_layer differ")
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(WORKLOADS_DEF) == list(definition["workloads"]),
          "workload lists differ")
    print("  definition.json matches BENCHMARK.json")


def check_missing_repository() -> None:
    """Without the repository the benchmark fails and prints no result."""
    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run_cli(bare, "write-l", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "bare directory run exited 0")
    check('"metrics"' not in done.stdout, "bare directory run printed a result")
    print("  bare directory: non-zero exit, no result")


def main(names) -> int:
    check_definition()
    check_missing_repository()
    for name in names or list(WORKLOADS_DEF):
        workload = WORKLOADS_DEF[name]
        check_metrics(name)
        asyncio.run(check_injected_mismatch(workload))
        asyncio.run(check_read_errors(workload))
        asyncio.run(check_attribution(workload))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
