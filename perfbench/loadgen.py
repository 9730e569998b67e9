"""Closed-loop load generator over :class:`AsyncProtocolClient`.

Like fio with a fixed iodepth: each connection keeps ``DEPTH`` requests
outstanding with zero think time and sends its next request as soon as
a slot frees.  A request waits while another in-flight request on the
same connection touches one of its LBAs, so a read never races a write
and every read has exactly one correct answer: the connection's last
acknowledged write to that LBA.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.net.aserver import AsyncProtocolClient

from workload import CHUNK, DEPTH, ZERO_DIGEST, Contents, Request, digest


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(0, int(rank) - 1)]


@dataclass
class OpSample:
    """One completed client operation."""

    is_write: bool
    lba: int
    chunks: int
    request_id: int
    sent_ns: int
    done_ns: int
    ok: bool


@dataclass
class PhaseResult:
    samples: List[OpSample] = field(default_factory=list)
    began_ns: int = 0
    ended_ns: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    lateness_ns: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    logical_bytes: int = 0
    written_chunks: int = 0  #: acknowledged write chunks
    #: what ``at_chunks``'s probe returned when it fired, if it did
    probed: Optional[float] = None
    #: a stream ran out before the deadline (the trace was too short)
    exhausted: bool = False


class Connection:
    """One client connection, its partition's expected contents and the
    LBAs it has in flight."""

    def __init__(self, client: AsyncProtocolClient, contents: Contents):
        self.client = client
        self.contents = contents
        #: lba -> digest of the content of the last acknowledged write
        self.expected: Dict[int, bytes] = {}
        self.inflight: Dict[int, asyncio.Event] = {}

    def verify(self, lbas: range, data: bytes) -> bool:
        """``data`` equals the last acknowledged write of every LBA."""
        view = memoryview(data)
        return len(data) == len(lbas) * CHUNK and all(
            digest(view[index * CHUNK:(index + 1) * CHUNK])
            == self.expected.get(lba, ZERO_DIGEST)
            for index, lba in enumerate(lbas)
        )

    async def _claim(self, lbas: range) -> asyncio.Event:
        while True:
            busy = [self.inflight[lba] for lba in lbas if lba in self.inflight]
            if not busy:
                break
            await busy[0].wait()
        done = asyncio.Event()
        for lba in lbas:
            self.inflight[lba] = done
        return done

    def _release(self, lbas: range, done: asyncio.Event) -> None:
        for lba in lbas:
            del self.inflight[lba]
        done.set()

    async def send(self, request: Request, result: PhaseResult) -> OpSample:
        """Send one request, wait for its reply and verify it."""
        lbas = range(request.lba, request.lba + request.chunks)
        done = await self._claim(lbas)
        client = self.client
        ok = True
        # The v2 id the client is about to assign (it numbers requests
        # before its first await); spans of the traced run join on it.
        request_id = (client._next_request_id + 1) % (1 << 32)
        payload = (self.contents.payload(request.content_ids)
                   if request.is_write else b"")
        try:
            sent = time.perf_counter_ns()
            if request.is_write:
                await client.write(request.lba, payload)
            else:
                data = await client.read(request.lba, request.chunks)
            finished = time.perf_counter_ns()
        except (ReproError, OSError):
            finished = time.perf_counter_ns()
            ok = False
        finally:
            self._release(lbas, done)
        result.attempted += 1
        if ok and request.is_write:
            result.written_chunks += request.chunks
            digests = self.contents.digests
            for lba, cid in zip(lbas, request.content_ids):
                self.expected[lba] = digests[cid]
        elif ok and not self.verify(lbas, data):
            ok = False
            result.mismatches += 1
        if ok:
            result.logical_bytes += request.chunks * CHUNK
        else:
            result.failed += 1
        return OpSample(request.is_write, request.lba, request.chunks,
                        request_id, sent, finished, ok)


async def run_phase(
    connections: List[Connection],
    streams: List[List[Request]],
    seconds: Optional[float],
    at_chunks: Optional[Tuple[int, Callable[[], float]]] = None,
) -> PhaseResult:
    """Drive every connection's stream until it ends or ``seconds`` pass.

    ``at_chunks=(n, probe)`` calls ``probe`` once, as soon as ``n``
    write chunks are acknowledged, and keeps its value in ``probed``.
    Returns the samples in completion order plus wall and generator CPU.
    """
    result = PhaseResult(began_ns=time.perf_counter_ns())
    deadline = None if seconds is None else result.began_ns + int(seconds * 1e9)
    cpu0 = time.process_time()

    async def slot(connection: Connection, cursor: List[int],
                   requests: List[Request]) -> None:
        ready = time.perf_counter_ns()
        while cursor[0] < len(requests):
            if deadline is not None and ready >= deadline:
                return
            request = requests[cursor[0]]
            cursor[0] += 1
            sample = await connection.send(request, result)
            result.lateness_ns.append(sample.sent_ns - ready)
            result.samples.append(sample)
            ready = sample.done_ns
            if (at_chunks and result.probed is None
                    and result.written_chunks >= at_chunks[0]):
                result.probed = at_chunks[1]()
        result.exhausted |= deadline is not None

    tasks = []
    for connection, requests in zip(connections, streams):
        cursor = [0]
        for _ in range(DEPTH):
            tasks.append(asyncio.create_task(slot(connection, cursor, requests)))
    await asyncio.gather(*tasks)
    result.ended_ns = time.perf_counter_ns()
    result.wall_s = (result.ended_ns - result.began_ns) / 1e9
    result.cpu_s = time.process_time() - cpu0
    return result
