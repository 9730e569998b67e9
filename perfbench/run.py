"""Client-observed serving benchmark over the paper's Table-3 workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload write-l --seed 1 --seconds 30 --trace 0

``--trace 0`` starts ``python -m repro.net serve --no-trace`` in a child
process (CLI defaults: FIDR, zlib+sha256, parallelism 1, 2 workers,
queue depth 64, offload), drives it from this process with two
pipelined ``AsyncProtocolClient`` connections in a closed loop, checks
every read and prints the end-to-end metrics.  Set-up (spawn to
listening plus the warm-up prefix) is done ``SETUPS`` times.

The server's CPU on a shared host changes speed for seconds to minutes
at a time, so a host probe (``probe.py``) runs beside the server, and
every timing is taken per ``WINDOW_S`` window and scaled by the
probe's time in that window to the reference host speed
``REFERENCE_HOST_MS`` (see ``end_to_end``); the unscaled values are
printed as ``raw.<metric>``.

``--trace 1`` runs the timed phase twice, against the plain server and
against ``perfbench/traced_server.py`` (the same serve entry with
benchmark-owned spans), and prints the per-layer metrics.

Each run ends by reading back every written LBA, untimed; on a workload
without timed reads, these reads give the read metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``correct`` is false, and the
exit code 1, when any operation failed: an error reply, a refused
request or a read that returned the wrong bytes.  A timed phase whose
trace runs out before ``--seconds`` exits 3 without a result (the
workload's ``chunks_per_s`` is too small for the server), and a
checkout without ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import marshal
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their (scaled) median.
SETUPS = 5
#: Samples of an op type behind one p99 (at least ten beyond it).
MIN_P99_SAMPLES = 1000
#: Longest contiguous read of the read-back, in chunks.
READ_GROUP = 16
#: Length of the windows a timed phase is cut into; the timing metrics
#: are medians over its windows.
WINDOW_S = 1.0
#: Host probe time (ms) the timing metrics are scaled to: the probe's
#: typical time on the 2-core host the baseline was measured on.
REFERENCE_HOST_MS = 0.4

MB = float(1 << 20)
#: CPUs of the server child; set by :func:`main` (see ``server.place``).
SERVER_CPUS = None


class TraceExhausted(RuntimeError):
    """A timed phase drained its request streams before the deadline."""


@dataclass
class Connected:
    """A started server plus the benchmark's connections to it."""

    server: object
    connections: list
    #: ``perf_counter_ns`` at spawn and when the warm-up had finished
    setup_ns: Tuple[int, int] = (0, 0)

    async def close(self) -> None:
        try:
            for connection in self.connections:
                await connection.client.close()
        finally:
            self.server.stop()


async def connect_server(workload, streams, prefix: Sequence[str] = ()) -> Connected:
    """Spawn the server, connect and replay the warm-up prefix, untimed."""
    from loadgen import Connection, run_phase
    from repro.net.aserver import AsyncProtocolClient
    from server import ServerProcess

    argv = [*prefix, "serve", "--no-trace", *workload.serve_args]
    if not prefix:
        argv = ["-m", "repro.net", *argv]
    began = time.perf_counter_ns()
    server = ServerProcess(argv, ROOT, SERVER_CPUS).start()
    connected = Connected(server, [])
    try:
        for _ in streams.warmup:
            client = await AsyncProtocolClient.connect(server.host, server.port)
            connected.connections.append(
                Connection(client, streams.contents))
        warm = await run_phase(connected.connections, streams.warmup, None)
        if warm.failed:
            raise RuntimeError(f"{warm.failed} warm-up operations failed")
    except BaseException:
        await connected.close()
        raise
    connected.setup_ns = (began, time.perf_counter_ns())
    return connected


def contiguous_reads(lbas: List[int]) -> list:
    """Sorted LBAs as reads of up to ``READ_GROUP`` contiguous chunks."""
    from workload import Request

    runs: list = []
    for lba in lbas:
        last = runs[-1] if runs else None
        if last and last.lba + last.read_chunks == lba \
                and last.read_chunks < READ_GROUP:
            last.read_chunks += 1
        else:
            runs.append(Request(False, lba))
    return runs


async def read_back(connections):
    """Every written LBA read once and compared byte for byte."""
    from loadgen import run_phase

    return await run_phase(connections, [
        contiguous_reads(sorted(c.expected)) for c in connections], None)


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` ticks of every CPU of the host so far."""
    with open("/proc/stat") as handle:
        ticks = [int(field) for field in handle.readline().split()[1:]]
    # The guest fields are already counted in user and nice.
    return ticks[7], sum(ticks[:8])


@dataclass
class Measured:
    """One timed phase, the STATS around it, and the untimed checks."""

    phase: object
    stats: Tuple[dict, dict]
    rss_mb: float
    #: share of the host's CPU time the hypervisor gave to other guests
    #: during the timed phase; it slows both processes down
    steal_frac: float
    #: ``(perf_counter_ns, server CPU s)`` at the start of the timed
    #: phase and at the end of each of its windows
    marks: List[Tuple[int, float]]
    #: every written LBA read back (untimed); its reads give the read
    #: metrics of a workload without timed reads
    readback: Optional[object] = None
    #: the host probe's ``(perf_counter_ns, ms)`` samples over the timed
    #: phase and the read-back, and the set-ups if timed (see ``probe.py``)
    host: List[Tuple[int, float]] = field(default_factory=list)
    #: ``Connected.setup_ns`` of every set-up of a ``--trace 0`` run
    setups: List[Tuple[int, int]] = field(default_factory=list)

    def host_ms(self, began: int, ended: int) -> float:
        """Median probe time over ``[began, ended)``."""
        values = [ms for ns, ms in self.host if began <= ns < ended]
        if not values:
            raise RuntimeError("no host probe sample in a window")
        return statistics.median(values)

    @property
    def phases(self) -> list:
        return [p for p in (self.phase, self.readback) if p is not None]


async def mark_windows(server, seconds: float,
                       marks: List[Tuple[int, float]]) -> None:
    """Append ``(perf_counter_ns, server CPU s)`` now and at the end of
    every whole ``WINDOW_S`` window of the next ``seconds``."""
    began = time.perf_counter_ns()
    marks.append((began, server.cpu_s()))
    for window in range(1, int(seconds / WINDOW_S) + 1):
        due = began + int(window * WINDOW_S * 1e9)
        await asyncio.sleep(max(0.0, (due - time.perf_counter_ns()) / 1e9))
        marks.append((time.perf_counter_ns(), server.cpu_s()))


def windowed(samples, edges: Sequence[int]) -> List[list]:
    """The samples completed in each window ``[edges[i], edges[i+1])``."""
    import bisect

    windows: List[list] = [[] for _ in edges[1:]]
    for sample in samples:
        index = bisect.bisect_right(edges, sample.done_ns) - 1
        if 0 <= index < len(windows):
            windows[index].append(sample)
    return windows


def fixed_edges(phase) -> List[int]:
    """Edges of the whole ``WINDOW_S`` windows of an untimed phase (the
    phase as one window if it is shorter)."""
    step = int(WINDOW_S * 1e9)
    count = max(1, (phase.ended_ns - phase.began_ns) // step)
    if count == 1:
        return [phase.began_ns, phase.ended_ns + 1]
    return [phase.began_ns + index * step for index in range(count + 1)]


async def timed(connected: Connected, workload, streams, seconds: float,
                check: bool) -> Measured:
    """The timed phase and, with ``check``, the read-back after it, with
    the host probe running beside the server through both."""
    from loadgen import run_phase
    from probe import HostProbe

    server, connections = connected.server, connected.connections
    before = await connections[0].client.stats()
    probe = HostProbe(server.cpus).start()
    try:
        ticks0 = cpu_ticks()
        marks: List[Tuple[int, float]] = []
        phase, _ = await asyncio.gather(
            run_phase(connections, streams.timed, seconds,
                      (workload.rss_at_chunks, server.peak_rss_mb)),
            mark_windows(server, seconds, marks))
        if phase.exhausted:
            raise TraceExhausted(f"the timed phase ran out of requests "
                                 f"after {phase.wall_s:.2f} s")
        ticks1 = cpu_ticks()
        rss = (phase.probed if phase.probed is not None
               else server.peak_rss_mb())
        after = await connections[0].client.stats()
        steal = (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
        measured = Measured(phase, (before, after), rss, steal, marks)
        if check:
            measured.readback = await read_back(connections)
    finally:
        samples = probe.stop()
    measured.host = samples
    return measured


async def measure_untraced(workload, streams, seconds: float,
                           setups: int, check: bool) -> Measured:
    """``setups`` set-ups (the last one is kept) with the host probe
    beside them, then the timed phase."""
    from probe import HostProbe

    connected = None
    spans: List[Tuple[int, int]] = []
    probe = HostProbe(SERVER_CPUS).start()
    try:
        for _ in range(setups):
            if connected is not None:
                await connected.close()
            connected = await connect_server(workload, streams)
            spans.append(connected.setup_ns)
    finally:
        samples = probe.stop()
    try:
        measured = await timed(connected, workload, streams, seconds, check)
    finally:
        await connected.close()
    measured.host[:0] = samples
    measured.setups = spans
    return measured


async def measure_traced(workload, streams, seconds: float, spans_path: str
                         ) -> Tuple[Measured, list]:
    launcher = os.path.join(HERE, "traced_server.py")
    connected = await connect_server(workload, streams, [launcher, spans_path])
    try:
        measured = await timed(connected, workload, streams, seconds,
                               check=True)
    finally:
        await connected.close()
    from spans import START

    with open(spans_path, "rb") as handle:
        spans = marshal.load(handle)
    # Every span of a timed request starts inside the timed phase.
    began, ended = measured.phase.began_ns, measured.phase.ended_ns
    return measured, [span for span in spans if began <= span[START] <= ended]


def latency_ms(sample) -> float:
    return (sample.done_ns - sample.sent_ns) / 1e6


def scaled_latencies(groups: List[list], slow: List[float],
                     is_write: bool) -> List[float]:
    """Latency (ms) of every completed write or read of the windows, each
    divided by its window's host slowness."""
    return [latency_ms(s) / factor for window, factor in zip(groups, slow)
            for s in window if s.ok and s.is_write == is_write]


def logical_mb(window: list) -> float:
    from workload import CHUNK

    return sum(s.chunks for s in window if s.ok) * CHUNK / MB


def end_to_end(run: Measured, normalize: bool = True
               ) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, with every timing scaled to the reference
    host speed (``REFERENCE_HOST_MS``).

    The timed phase is cut into ``WINDOW_S`` windows; a window's host
    slowness is the host probe's median in it over
    ``REFERENCE_HOST_MS``.  Throughput, CPU per MB and p50 latency are
    medians over the windows of the window's value times, or over, its
    slowness; a p99 is the median of the p99s of runs of consecutive
    windows holding ``MIN_P99_SAMPLES`` scaled latencies each.  The reads of a workload without timed reads are
    those of the read-back, windowed the same way.
    ``setup_s`` is the median of the set-ups, each scaled by the host
    probe's median during it.
    """
    from loadgen import percentile

    def slowness(edges: List[int]) -> List[float]:
        return [run.host_ms(edges[i], edges[i + 1]) / REFERENCE_HOST_MS
                if normalize else 1.0 for i in range(len(edges) - 1)]

    def p50(groups: List[list], slow: List[float], is_write: bool) -> float:
        values = [percentile(pooled, 50) for pooled in (
            scaled_latencies([window], [factor], is_write)
            for window, factor in zip(groups, slow)) if pooled]
        return statistics.median(values) if values else 0.0

    def p99(groups: List[list], slow: List[float], is_write: bool) -> float:
        values: List[float] = []
        pooled: List[float] = []
        for window, factor in zip(groups, slow):
            pooled += scaled_latencies([window], [factor], is_write)
            if len(pooled) >= MIN_P99_SAMPLES:
                values.append(percentile(pooled, 99))
                pooled = []
        if pooled and not values:
            values.append(percentile(pooled, 99))
        return statistics.median(values) if values else 0.0

    edges = [ns for ns, _ in run.marks]
    cpu = [cpu_s for _, cpu_s in run.marks]
    windows = windowed(run.phase.samples, edges)
    slow = slowness(edges)
    if any(not s.is_write for s in run.phase.samples):
        reads, read_slow = windows, slow
    else:
        read_edges = fixed_edges(run.readback)
        reads = windowed(run.readback.samples, read_edges)
        read_slow = slowness(read_edges)
    setup_s = [(ended - began) / 1e9 / (run.host_ms(began, ended)
                                        / REFERENCE_HOST_MS if normalize else 1.0)
               for began, ended in run.setups]
    mb = [logical_mb(window) for window in windows]
    rate = [mb[i] / ((edges[i + 1] - edges[i]) / 1e9) * slow[i]
            for i in range(len(windows))]
    cpu_per_mb = [(cpu[i + 1] - cpu[i]) * 1e3 / mb[i] / slow[i]
                  for i in range(len(windows)) if mb[i]]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "throughput_mb_s": (statistics.median(rate), "MB/s"),
        "write_p50_ms": (p50(windows, slow, True), "ms"),
        "write_p99_ms": (p99(windows, slow, True), "ms"),
        "read_p50_ms": (p50(reads, read_slow, False), "ms"),
        "read_p99_ms": (p99(reads, read_slow, False), "ms"),
        "reduction_factor": (
            run.stats[1]["gauges"]["engine.reduction_factor"], "ratio"),
        "server_peak_rss_mb": (run.rss_mb, "MB"),
        "server_cpu_ms_per_mb": (statistics.median(cpu_per_mb), "ms/MB"),
    }


def client_metrics(run: Measured) -> Dict[str, Tuple[float, str]]:
    """The generator's and the host's state during the timed phase."""
    from loadgen import percentile

    phase = run.phase
    lateness = [ns / 1e6 for ns in phase.lateness_ns]
    return {
        "client.cpu_frac": (phase.cpu_s / phase.wall_s, "fraction"),
        "client.lateness_ms.p99": (percentile(lateness, 99), "ms"),
        "host.steal_frac": (run.steal_frac, "fraction"),
        "host.cpu_ref_ms": (run.host_ms(phase.began_ns, phase.ended_ns), "ms"),
    }


def describe(run: Measured, label: str) -> None:
    """Sample counts, failures and generator state, by name."""
    phase = run.phase
    writes = sum(1 for s in phase.samples if s.is_write)
    reads = len(phase.samples) - writes
    attempted = sum(p.attempted for p in run.phases)
    failed = sum(p.failed for p in run.phases)
    print(f"[{label}] samples: writes={writes} reads={reads} "
          f"read-back={run.readback.attempted if run.readback else 0} "
          f"write_chunks={phase.written_chunks} wall_s={phase.wall_s:.3f} "
          f"read-back wall_s={run.readback.wall_s if run.readback else 0:.3f}")
    edges = [ns for ns, _ in run.marks]
    spans = [(edges[i + 1] - edges[i]) / 1e9 for i in range(len(edges) - 1)]
    print(f"[{label}] per window: MB/s " + " ".join(
        f"{logical_mb(w) / span:.1f}"
        for w, span in zip(windowed(phase.samples, edges), spans)))
    print(f"[{label}] per window: server CPU share " + " ".join(
        f"{(run.marks[i + 1][1] - run.marks[i][1]) / span:.2f}"
        for i, span in enumerate(spans)))
    print(f"[{label}] per window: host probe ms " + " ".join(
        f"{run.host_ms(edges[i], edges[i + 1]):.3f}"
        for i in range(len(spans))))
    if not reads and run.readback:
        reads = len(run.readback.samples)
        print(f"[{label}] read latency from the {reads} reads of the "
              "read-back (untimed)")
    if phase.probed is None:
        print(f"[{label}] peak RSS read at the end of the timed phase: "
              "fewer write chunks than the workload's RSS point")
    if writes < MIN_P99_SAMPLES or 0 < reads < MIN_P99_SAMPLES:
        print(f"[{label}] fewer than {MIN_P99_SAMPLES} samples behind a p99")
    print(f"[{label}] generator peak RSS "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    print(f"{'failed_op_frac':34s} {failed / max(1, attempted):14.6f} fraction")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    from server import place
    from workload import WORKLOADS_DEF, build_streams

    workload = WORKLOADS_DEF.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS_DEF)}")
    global SERVER_CPUS
    SERVER_CPUS, generator_cpus = place()
    print(f"placement: server CPUs {SERVER_CPUS}, generator CPUs "
          f"{generator_cpus} (None: unpinned)")
    streams = build_streams(workload, args.seed, args.seconds)
    # The request streams live for the whole run; keep the collector
    # from rescanning them while the generator is timed.
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            metrics, runs = trace_run(workload, streams, args.seconds)
        else:
            run = asyncio.run(measure_untraced(
                workload, streams, args.seconds, SETUPS, check=True))
            describe(run, "untraced")
            metrics, runs = end_to_end(run), [run]
            for name, (value, unit) in end_to_end(run, False).items():
                print(f"raw.{name:30s} {value:14.6f} {unit}")
            for name, (value, unit) in client_metrics(run).items():
                print(f"{name:34s} {value:14.6f} {unit}")
    except TraceExhausted as error:
        print(f"{error}: raise the workload's chunks_per_s", file=sys.stderr)
        return 3
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    result = verdict(runs)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def verdict(runs: List[Measured]) -> dict:
    """``correct`` only if no operation of any phase failed: an error
    reply, a refused request or a read of the wrong bytes each count."""
    phases = [phase for run in runs for phase in run.phases]
    failed = sum(phase.failed for phase in phases)
    print(f"failed operations: {failed}, of which mismatched reads: "
          f"{sum(phase.mismatches for phase in phases)}")
    return {"correct": failed == 0,
            "attempted": sum(phase.attempted for phase in phases),
            "failed": failed}


def trace_run(workload, streams, seconds: float):
    """Untraced then traced timed phase; per-layer metrics."""
    from spans import SpanIndex, layer_self_ns, per_layer

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        plain = asyncio.run(measure_untraced(
            workload, streams, seconds, 1, check=False))
        traced, spans = asyncio.run(measure_traced(
            workload, streams, seconds, os.path.join(work, "spans.marshal")))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    describe(plain, "untraced")
    describe(traced, "traced")
    phase = traced.phase
    index = SpanIndex(spans)
    metrics, attr = per_layer(index, phase.samples, traced.stats)
    metrics.update(client_metrics(traced))
    plain_rate = plain.phase.logical_bytes / plain.phase.wall_s
    traced_rate = phase.logical_bytes / phase.wall_s
    metrics["obs.trace_overhead_frac"] = (1.0 - traced_rate / plain_rate, "fraction")
    parts = layer_self_ns(attr)
    print(f"attribution over {attr.requests} requests "
          f"({attr.unmatched} unmatched): mean client latency "
          f"{attr.latency_ns / max(1, attr.requests) / 1e3:.1f} us = "
          + " + ".join(f"{layer} {ns / max(1, attr.requests) / 1e3:.1f}"
                       for layer, ns in parts.items())
          + f" (sum {sum(parts.values()) / max(1, attr.requests) / 1e3:.1f} us)")
    return dict(sorted(metrics.items())), [plain, traced]


if __name__ == "__main__":
    sys.exit(main())
