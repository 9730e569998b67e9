"""Join client operations with server spans and derive per-layer numbers.

Each timed client operation is the root of one request tree:

    client request [sent, done]
      net.decode      the frame's share of its ``FrameDecoder.events`` call
      net.queue_wait  decode end -> dispatch start (same request id)
      net.dispatch    ``ProtocolServer.handle_frame`` and its subtree

Server spans are matched to the client operation by ``(request_id,
lba)``; LBA partitions are disjoint across connections, so the pair is
unique.  A span's self time is its duration minus the part of it that
its children cover; the root's self time is the residual, the client
latency no span covers.  Every span is clipped to its parent, and spans
of one thread never overlap, so the self times of a tree plus its
residual add up to the client latency.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from loadgen import percentile

#: Index of each field in a recorded span tuple.
SID, NAME, START, END, PARENT, RID, LBA, COUNTERS = range(8)


@dataclass
class Node:
    name: str
    start: int
    end: int
    children: List["Node"] = field(default_factory=list)
    counters: Optional[Tuple[int, ...]] = None


def covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def clip(node: Node, start: int, end: int) -> Node:
    """``node`` and its subtree restricted to ``[start, end]``."""
    lo, hi = max(node.start, start), min(node.end, end)
    hi = max(lo, hi)
    return Node(node.name, lo, hi,
                [clip(child, lo, hi) for child in node.children],
                node.counters)


def self_times(node: Node, out: Dict[str, int]) -> None:
    """Add every node's self time, by span name, into ``out``."""
    spans = [(c.start, c.end) for c in node.children]
    out[node.name] = out.get(node.name, 0) + (node.end - node.start) - covered(spans)
    for child in node.children:
        self_times(child, out)


def walk(node: Node):
    yield node
    for child in node.children:
        yield from walk(child)


class SpanIndex:
    """Server spans arranged as per-request trees."""

    def __init__(self, spans: Sequence[tuple]):
        nodes: Dict[int, Node] = {}
        for span in spans:
            nodes[span[SID]] = Node(span[NAME], span[START], span[END],
                                    counters=span[COUNTERS])
        self.decode: Dict[Tuple[int, int], Node] = {}
        self.dispatch: Dict[Tuple[int, int], Node] = {}
        self.by_name: Dict[str, List[Node]] = defaultdict(list)
        for span in spans:
            node = nodes[span[SID]]
            self.by_name[span[NAME]].append(node)
            parent = nodes.get(span[PARENT])
            if parent is not None:
                parent.children.append(node)
            elif span[NAME] == "net.decode":
                self.decode[(span[RID], span[LBA])] = node
            elif span[NAME] == "net.dispatch":
                self.dispatch[(span[RID], span[LBA])] = node
        for node in nodes.values():
            node.children.sort(key=lambda child: child.start)

    def tree(self, request_id: int, lba: int, sent: int, done: int
             ) -> Optional[Node]:
        """The client operation's tree, or ``None`` if a span is missing."""
        key = (request_id, lba)
        decode, dispatch = self.decode.get(key), self.dispatch.get(key)
        if decode is None or dispatch is None:
            return None
        wait = Node("net.queue_wait", decode.end, max(decode.end, dispatch.start))
        root = Node("residual", sent, done, [decode, wait, dispatch])
        return clip(root, sent, done)


def layer_of(name: str) -> str:
    """Report layer of a span name: ``net.decode`` stays itself, the
    rest group by their first component."""
    if name.startswith("net."):
        return name
    return name.split(".", 1)[0]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta(before: dict, after: dict, name: str) -> float:
    for kind in ("counters", "gauges"):
        if name in after.get(kind, {}):
            return after[kind][name] - before.get(kind, {}).get(name, 0)
    return 0.0


@dataclass
class Attribution:
    """Per-request self times summed over the timed phase."""

    requests: int = 0
    latency_ns: int = 0
    self_ns: Dict[str, int] = field(default_factory=dict)
    queue_wait_ms: List[float] = field(default_factory=list)
    transport_ms: List[float] = field(default_factory=list)
    stall_ms: List[float] = field(default_factory=list)
    unmatched: int = 0

    @property
    def residual_ns(self) -> int:
        return self.self_ns.get("residual", 0)


def attribute(index: SpanIndex, samples) -> Attribution:
    """Build and sum every timed operation's request tree."""
    result = Attribution()
    for sample in samples:
        if not sample.ok:
            continue
        tree = index.tree(sample.request_id, sample.lba,
                          sample.sent_ns, sample.done_ns)
        if tree is None:
            result.unmatched += 1
            continue
        latency = sample.done_ns - sample.sent_ns
        result.requests += 1
        result.latency_ns += latency
        self_times(tree, result.self_ns)
        decode, wait, dispatch = tree.children
        result.queue_wait_ms.append((wait.end - wait.start) / 1e6)
        result.transport_ms.append(
            (latency - (dispatch.end - decode.start)) / 1e6)
        if any(node.name == "journal.checkpoint" for node in walk(dispatch)):
            result.stall_ms.append(latency / 1e6)
    return result


def per_layer(index: SpanIndex, samples, stats: Tuple[dict, dict]
              ) -> Tuple[Dict[str, Tuple[float, str]], Attribution]:
    """Every per-layer metric of the traced phase, as ``name -> (value, unit)``.

    ``index`` holds the spans that started inside the timed phase;
    ``stats`` are the STATS snapshots taken just before and after it."""
    before, after = stats
    ok = [s for s in samples if s.ok]
    written = sum(s.chunks for s in ok if s.is_write)
    read = sum(s.chunks for s in ok if not s.is_write)
    attr = attribute(index, samples)
    spans = index.by_name

    def total_us(name: str) -> float:
        return sum(n.end - n.start for n in spans.get(name, ())) / 1e3

    def self_us(name: str) -> float:
        total = 0
        for node in spans.get(name, ()):
            total += (node.end - node.start) - covered(
                (c.start, c.end) for c in node.children)
        return total / 1e3

    def counters(name: str, width: int) -> List[int]:
        sums = [0] * width
        for node in spans.get(name, ()):
            if node.counters:
                sums = [a + b for a, b in zip(sums, node.counters)]
        return sums

    out: Dict[str, Tuple[float, str]] = {}

    def per_op(ns: float) -> float:
        return ns / 1e3 / max(1, attr.requests)

    out["net.decode_us_per_op"] = (per_op(attr.self_ns.get("net.decode", 0)), "us")
    out["net.queue_wait_ms.p50"] = (percentile(attr.queue_wait_ms, 50), "ms")
    out["net.queue_wait_ms.p99"] = (percentile(attr.queue_wait_ms, 99), "ms")
    out["net.dispatch_self_us_per_op"] = (
        per_op(attr.self_ns.get("net.dispatch", 0)), "us")
    out["net.transport_ms.p50"] = (percentile(attr.transport_ms, 50), "ms")
    out["net.max_queue_depth"] = (
        after["gauges"].get("server.max_queue_depth", 0), "count")
    out["net.frames_rejected"] = (
        _delta(before, after, "server.frames_rejected"), "count")

    batches = [n.end - n.start for n in spans.get("systems.write", ())
               if any(c.name == "engine.write_many" for c in walk(n))]
    out["systems.write_us_per_chunk"] = (
        _ratio(total_us("systems.write"), written), "us")
    out["systems.self_us_per_chunk"] = (
        _ratio(self_us("systems.write"), written), "us")
    out["systems.read_us_per_chunk"] = (_ratio(total_us("systems.read"), read), "us")
    out["systems.batch_ms.p50"] = (percentile(batches, 50) / 1e6, "ms")
    out["systems.batch_ms.p99"] = (percentile(batches, 99) / 1e6, "ms")
    out["hw.nic_ingest_us_per_chunk"] = (
        _ratio(total_us("hw.nic_ingest"), written), "us")
    hits, misses = counters("hw.nic_lookup", 2)
    out["hw.nic_buffer_hit_rate"] = (_ratio(hits, hits + misses), "fraction")

    engine_chunks = (_delta(before, after, "engine.unique_chunks")
                     + _delta(before, after, "engine.duplicate_chunks"))
    for stage in ("chunk", "hash", "lookup", "compress", "pack", "publish"):
        out[f"engine.stage.{stage}_us_per_chunk"] = (
            _ratio(total_us(f"engine.stage.{stage}"), engine_chunks), "us")
    out["engine.stage.read_us_per_chunk"] = (
        _ratio(total_us("engine.stage.read"), read), "us")
    out["engine.other_us_per_chunk"] = (
        _ratio(self_us("engine.write_many"), engine_chunks), "us")
    unique = _delta(before, after, "engine.unique_chunks")
    wasted = _delta(before, after, "engine.plan.wasted_compressions")
    out["engine.unique_frac"] = (_ratio(unique, engine_chunks), "fraction")
    out["engine.plan_wasted_frac"] = (_ratio(wasted, wasted + unique), "fraction")
    cache_hits = _delta(before, after, "engine.read_cache.hits")
    out["engine.read_cache_hit_rate"] = (_ratio(
        cache_hits, cache_hits + _delta(before, after, "engine.read_cache.misses")),
        "fraction")

    out["index.probes_per_chunk"] = (
        _ratio(_delta(before, after, "index.probes"), engine_chunks), "count")
    filter_hits = _delta(before, after, "index.filter.hits")
    out["index.filter_hit_rate"] = (_ratio(
        filter_hits, filter_hits + _delta(before, after, "index.filter.misses")),
        "fraction")
    out["index.saved_lookups_per_chunk"] = (_ratio(
        _delta(before, after, "index.batch.saved_lookups"), engine_chunks), "count")

    reads = counters("cache.read_bucket", 5)
    writes = counters("cache.write_bucket", 5)
    c_hits, c_miss, c_evict, c_fetch, c_flush = (a + b for a, b in zip(reads, writes))
    accesses = len(spans.get("cache.read_bucket", ())) + len(
        spans.get("cache.write_bucket", ()))
    kchunks = engine_chunks / 1e3
    out["cache.hit_rate"] = (_ratio(c_hits, c_hits + c_miss), "fraction")
    out["cache.evictions_per_kchunk"] = (_ratio(c_evict, kchunks), "count")
    out["cache.fetches_per_kchunk"] = (_ratio(c_fetch, kchunks), "count")
    out["cache.flushes_per_kchunk"] = (_ratio(c_flush, kchunks), "count")
    out["cache.us_per_access"] = (_ratio(
        total_us("cache.read_bucket") + total_us("cache.write_bucket"), accesses), "us")

    (decompressed,) = counters("codecs.decompress", 1)
    out["codecs.stored_frac"] = (_ratio(
        _delta(before, after, "engine.stored_bytes"),
        _delta(before, after, "engine.unique_logical_bytes")), "fraction")
    out["codecs.decompress_us_per_chunk"] = (
        _ratio(total_us("codecs.decompress"), decompressed), "us")
    out["container.sealed_per_kchunk"] = (
        _ratio(_delta(before, after, "engine.containers_sealed"), kchunks), "count")

    commits = [(n.end - n.start) / 1e3 for n in spans.get("journal.commit", ())]
    checkpoints = [(n.end - n.start) / 1e6 for n in spans.get("journal.checkpoint", ())]
    out["journal.commit_us.p50"] = (percentile(commits, 50), "us")
    out["journal.commit_us.p99"] = (percentile(commits, 99), "us")
    out["journal.records_per_chunk"] = (
        _ratio(_delta(before, after, "journal.records_total"), engine_chunks), "count")
    out["journal.bytes_per_logical_byte"] = (_ratio(
        _delta(before, after, "journal.commit_bytes_total"),
        _delta(before, after, "engine.logical_bytes")), "ratio")
    out["journal.checkpoints"] = (
        _delta(before, after, "journal.checkpoints_total"), "count")
    out["journal.checkpoint_ms.max"] = (max(checkpoints, default=0.0), "ms")
    out["journal.stall_ms.p99"] = (percentile(attr.stall_ms, 99), "ms")

    out["parallel.maps_inline_frac"] = (_ratio(
        _delta(before, after, "pool.maps_inline"),
        _delta(before, after, "pool.maps_total")), "fraction")
    out["residual_frac"] = (_ratio(attr.residual_ns, attr.latency_ns), "fraction")
    for layer, ns in sorted(layer_self_ns(attr).items()):
        out[f"self.{layer}_us_per_op"] = (per_op(ns), "us")
    return out, attr


#: Layers whose self time per operation is reported, in tree order.
SELF_LAYERS = ("net.decode", "net.queue_wait", "net.dispatch", "systems", "hw",
               "engine", "cache", "codecs", "journal", "residual")


def layer_self_ns(attr: Attribution) -> Dict[str, int]:
    """Self time by report layer; every layer present, zeros included."""
    out = {layer: 0 for layer in SELF_LAYERS}
    for name, ns in attr.self_ns.items():
        out[layer_of(name)] += ns
    return out
