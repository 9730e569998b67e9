"""Traced launcher: ``repro.net serve`` with benchmark-owned spans.

Usage::

    python perfbench/traced_server.py SPANS_FILE serve --no-trace [flags]

Before calling the unchanged ``repro.net`` serve entry, this wraps the
layers' public functions in spans and installs its own stage timer on
every engine's ``stage_clock``.  The program's own tracing stays off.
A span is ``(id, name, start_ns, end_ns, parent_id, request_id, lba,
counters)``: the request id and LBA are those of the frame the thread
is dispatching (0 and -1 outside a request), and ``counters`` holds
per-call deltas of the layer's own counters where the layer has them.
Spans stay in memory and are written with :mod:`marshal` after the
server shuts down (SIGINT).

``perf_counter_ns`` is ``CLOCK_MONOTONIC`` on Linux, so these spans and
the client's timestamps share one clock.
"""

from __future__ import annotations

import itertools
import marshal
import os
import sys
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.cache.table_cache import TableCache  # noqa: E402
from repro.datared import codecs  # noqa: E402
from repro.datared.dedup import DedupEngine  # noqa: E402
from repro.datared.journal import MetadataJournal  # noqa: E402
from repro.hw.nic import FidrNic  # noqa: E402
from repro.net import __main__ as net_main  # noqa: E402
from repro.net.protocol import Frame, FrameDecoder, ProtocolServer  # noqa: E402
from repro.systems.server import StorageServer  # noqa: E402

_now = time.perf_counter_ns


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[int] = []
        self.request_id = 0
        self.lba = -1


class Recorder:
    """In-memory span store; one per server process."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self._ids = itertools.count(1)
        self._state = _ThreadState()

    def wrap(self, owner: Any, attr: str, name: str,
             snap: Optional[Callable[[tuple], Tuple[int, ...]]] = None,
             tag: Optional[Callable[[tuple], Tuple[int, ...]]] = None,
             request: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``snap(args)`` is read before and after the call and its delta
        stored; ``tag(args)`` is stored as read before the call.
        ``request=True`` marks a dispatch entry: its frame argument sets
        the thread's current request id and LBA.
        """
        original = getattr(owner, attr)
        state, spans, ids = self._state, self.spans, self._ids

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = state.stack
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            if request:
                frame: Frame = args[1]
                state.request_id, state.lba = frame.request_id, frame.lba
            before = snap(args) if snap else None
            counters = tag(args) if tag else None
            stack.append(span_id)
            start = _now()
            try:
                return original(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                if before is not None:
                    counters = tuple(
                        b - a for a, b in zip(before, snap(args))
                    )
                spans.append((span_id, name, start, end, parent,
                              state.request_id, state.lba, counters))
                if request:
                    state.request_id, state.lba = 0, -1

        setattr(owner, attr, wrapper)

    def wrap_decoder(self) -> None:
        """``FrameDecoder.events`` returns every frame one read decoded;
        the call's time is split evenly across those frames."""
        original = FrameDecoder.events
        spans, ids = self.spans, self._ids

        def events(decoder: FrameDecoder, data: bytes) -> list:
            start = _now()
            out = original(decoder, data)
            end = _now()
            frames = [event for event in out if isinstance(event, Frame)]
            step = (end - start) / max(1, len(frames))
            for index, frame in enumerate(frames):
                spans.append((next(ids), "net.decode",
                              start + int(index * step),
                              start + int((index + 1) * step), 0,
                              frame.request_id, frame.lba, None))
            return out

        FrameDecoder.events = events

    def dump(self, path: str) -> None:
        with open(path, "wb") as handle:
            marshal.dump(self.spans, handle)


class _StageSpan:
    __slots__ = ("recorder", "name", "span_id", "parent", "start")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        state = self.recorder._state
        stack = state.stack
        self.parent = stack[-1] if stack else 0
        self.span_id = next(self.recorder._ids)
        stack.append(self.span_id)
        self.start = _now()

    def __exit__(self, *exc: object) -> None:
        end = _now()
        state = self.recorder._state
        state.stack.pop()
        self.recorder.spans.append((
            self.span_id, self.name, self.start, end, self.parent,
            state.request_id, state.lba, None,
        ))


class StageTimer:
    """The engine's ``StageTimer`` protocol, recording ``engine.stage.*``."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._names = {}

    def stage(self, name: str) -> _StageSpan:
        qualified = self._names.get(name)
        if qualified is None:
            qualified = self._names[name] = f"engine.stage.{name}"
        return _StageSpan(self.recorder, qualified)


def _cache_counters(args: tuple) -> Tuple[int, ...]:
    stats = args[0].stats
    return (stats.hits + stats.warm_hits, stats.misses, stats.evictions,
            stats.fetches, stats.flushes)


def _nic_counters(args: tuple) -> Tuple[int, ...]:
    nic = args[0]
    return (nic.read_buffer_hits, nic.read_buffer_misses)


def instrument(recorder: Recorder) -> None:
    """Wrap every layer the benchmark reports on."""
    recorder.wrap_decoder()
    recorder.wrap(ProtocolServer, "handle_frame", "net.dispatch", request=True)
    recorder.wrap(StorageServer, "write", "systems.write")
    recorder.wrap(StorageServer, "read", "systems.read")
    recorder.wrap(FidrNic, "buffer_write", "hw.nic_ingest")
    recorder.wrap(FidrNic, "lookup_read", "hw.nic_lookup", snap=_nic_counters)
    recorder.wrap(DedupEngine, "write_many", "engine.write_many")
    recorder.wrap(DedupEngine, "read", "engine.read")
    recorder.wrap(TableCache, "read_bucket", "cache.read_bucket",
                  snap=_cache_counters)
    recorder.wrap(TableCache, "write_bucket", "cache.write_bucket",
                  snap=_cache_counters)
    recorder.wrap(codecs, "decode_many", "codecs.decompress",
                  tag=lambda args: (len(args[0]),))
    recorder.wrap(MetadataJournal, "commit", "journal.commit")
    recorder.wrap(MetadataJournal, "write_checkpoint", "journal.checkpoint")

    # Every engine the serve entry builds gets the benchmark's timer in
    # place of the system layer's (inactive) trace clock.
    build = StorageServer.__init__

    def init(server: StorageServer, system: Any) -> None:
        build(server, system)
        system.engine.stage_clock = StageTimer(recorder)

    StorageServer.__init__ = init


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    recorder = Recorder()
    instrument(recorder)
    status = net_main.main(argv[1:])
    recorder.dump(argv[0])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
