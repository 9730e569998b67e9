"""Seeded request streams for the serving benchmark.

Each workload is a Table-3 trace from
:func:`repro.workloads.generator.build_workload` with content from
:class:`repro.workloads.content.ContentFactory` (50%-compressible 4 KB
chunks).  The trace is turned into what the load generator sends:

* sequential runs of writes are grouped into one request each, up to
  the workload's group size and never across a partition region;
* LBAs are partitioned across the connections by 64-block region, so
  each connection owns a disjoint set of addresses and can check every
  read against its own last acknowledged write;
* a read that arrives while a write group is open is deferred until the
  group closes; reads never hit an LBA of the open group before its
  write, so the value a read must return is unchanged.

Chunk contents are generated from their content ids when a request is
first sent, and kept in a bounded LRU: holding every content of a 30-s
Write-L trace would take the generator past 1 GB.  What the generator
checks a read against is a digest of each LBA's last written content.

The server sees only these requests; the seed is the only input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.workloads.content import ContentFactory
from repro.workloads.generator import WORKLOADS, build_workload
from repro.workloads.trace import OpKind

#: Connections driving the server (one partition each).
CONNECTIONS = 2
#: Requests each connection keeps in flight.
DEPTH = 4
#: Blocks per partition region; a multiple of every group size.
REGION_BLOCKS = 64
CHUNK = 4096
#: Untimed trace prefix replayed at set-up (counts toward ``setup_s``).
WARMUP_CHUNKS = 3_000
#: Contents the generator keeps; more than twice the longest reuse window
#: (8000 chunks, Write-L), so a duplicate is rarely generated again.
CONTENT_CACHE = 16_384


def digest(data) -> bytes:
    """What a read of one chunk is checked against."""
    return hashlib.sha256(data).digest()


ZERO_DIGEST = digest(bytes(CHUNK))


class Contents:
    """Chunk contents by content id (``ContentFactory``, 50%-compressible
    4 KB chunks), generated on first use, and the digest of each."""

    def __init__(self) -> None:
        self.factory = ContentFactory(cache_entries=CONTENT_CACHE)
        self.digests: Dict[int, bytes] = {}

    def payload(self, content_ids: Sequence[int]) -> bytes:
        """The wire payload of a write of ``content_ids``."""
        parts = [self.factory.chunk(cid) for cid in content_ids]
        for cid, part in zip(content_ids, parts):
            if cid not in self.digests:
                self.digests[cid] = digest(part)
        return parts[0] if len(parts) == 1 else b"".join(parts)


@dataclass(frozen=True)
class WorkloadDef:
    """One benchmark workload (the reasons for each are in
    ``definition.json``)."""

    name: str
    table3_row: str  #: key into ``repro.workloads.generator.WORKLOADS``
    group_chunks: int  #: longest sequential run sent as one request
    serve_args: Tuple[str, ...]  #: extra ``repro.net serve`` flags
    #: Timed-phase chunks the trace holds per second of ``--seconds``:
    #: about three times the fastest 1-s window recorded
    #: (``definition.json``), so a faster server still finds requests
    #: waiting.  A timed phase that drains its trace fails the run.
    chunks_per_s: int
    #: timed-phase write chunks after which the server's peak RSS is
    #: read: below the write chunks of the slowest 30-s run recorded, so
    #: the metric covers the same data on every run and most of the phase
    rss_at_chunks: int


WORKLOADS_DEF: Dict[str, WorkloadDef] = {
    "write-l": WorkloadDef(
        name="write-l",
        table3_row="write-l",
        group_chunks=16,
        serve_args=(),
        chunks_per_s=18_000,
        rss_at_chunks=55_000,
    ),
    "mixed-durable": WorkloadDef(
        name="mixed-durable",
        table3_row="read-mixed",
        group_chunks=4,
        serve_args=("--checkpoint-every", "16"),
        chunks_per_s=20_000,
        rss_at_chunks=35_000,
    ),
}


@dataclass
class Request:
    """One wire request: a grouped write or a read."""

    is_write: bool
    lba: int
    content_ids: Tuple[int, ...] = ()  #: per chunk, writes only
    read_chunks: int = 1  #: reads only

    @property
    def chunks(self) -> int:
        return len(self.content_ids) if self.is_write else self.read_chunks


@dataclass
class Streams:
    """Per-connection request lists, split into warm-up and timed parts."""

    seed: int
    contents: Contents = field(default_factory=Contents)
    warmup: List[List[Request]] = field(default_factory=list)
    timed: List[List[Request]] = field(default_factory=list)


def partition_of(lba: int) -> int:
    return (lba // REGION_BLOCKS) % CONNECTIONS


def group_trace(trace, group_chunks: int) -> List[Request]:
    """Group sequential write runs; defer reads past the open group."""
    out: List[Request] = []
    open_lba = -1
    open_ids: List[int] = []
    deferred: List[Request] = []

    def close() -> None:
        nonlocal open_ids
        if open_ids:
            out.append(Request(True, open_lba, tuple(open_ids)))
            open_ids = []
        out.extend(deferred)
        deferred.clear()

    for io in trace.requests:
        if io.op == OpKind.READ:
            deferred.append(Request(False, io.lba))
            continue
        extends = (
            open_ids
            and io.lba == open_lba + len(open_ids)
            and len(open_ids) < group_chunks
            and io.lba % REGION_BLOCKS != 0
        )
        if not extends:
            close()
            open_lba = io.lba
        open_ids.append(io.content_id)
    close()
    return out


def build_streams(workload: WorkloadDef, seed: int, seconds: float) -> Streams:
    """Generate, group and partition one workload, sized for a timed
    phase of ``seconds``.  The warm-up's contents are generated here, so
    that set-up times the server, not the generator."""
    trace = build_workload(
        WORKLOADS[workload.table3_row],
        num_chunks=WARMUP_CHUNKS + int(workload.chunks_per_s * seconds),
        seed=seed,
    )
    streams = Streams(seed=seed)
    per_conn: List[List[Request]] = [[] for _ in range(CONNECTIONS)]
    for request in group_trace(trace, workload.group_chunks):
        per_conn[partition_of(request.lba)].append(request)
    warmup_chunks = WARMUP_CHUNKS // CONNECTIONS
    for requests in per_conn:
        done = cut = 0
        while cut < len(requests) and done < warmup_chunks:
            done += requests[cut].chunks
            cut += 1
        streams.warmup.append(requests[:cut])
        streams.timed.append(requests[cut:])
        for request in requests[:cut]:
            streams.contents.payload(request.content_ids)
    return streams
