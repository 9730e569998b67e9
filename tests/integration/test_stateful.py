"""Hypothesis stateful (model-based) tests for the core stores.

Each machine drives a component with random operation sequences while
maintaining a plain-dict model; invariants are checked continuously.
These are the strongest correctness guarantees in the suite — any
sequence of operations Hypothesis can construct must keep the component
equivalent to its model.
"""

import copy
import random

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.analysis.invariants import check_engine
from repro.cache.btree import BPlusTree
from repro.cache.table_cache import TableCache
from repro.datared.compression import ModeledCompressor
from repro.datared.dedup import DedupEngine
from repro.datared.hash_pbn import HashPbnTable, InMemoryBucketStore
from repro.datared.hashing import fingerprint
from repro.datared.journal import MetadataJournal, recover_into
from repro.datared.sharded import ShardedDedupEngine
from repro.errors import SnapshotError
from repro.parallel import StagePool

KEYS = st.integers(0, 120)
ZERO = b"\x00" * 4096


class BTreeMachine(RuleBasedStateMachine):
    """B+-tree ≡ dict under arbitrary insert/delete/search sequences."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=3)  # minimal order: most rebalancing
        self.model = {}

    @rule(key=KEYS, value=st.integers())
    def insert(self, key, value):
        self.tree.insert(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        assert self.tree.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def search(self, key):
        assert self.tree.search(key) == self.model.get(key)

    @invariant()
    def structurally_sound(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.model)


class TableCacheMachine(RuleBasedStateMachine):
    """Cached Hash-PBN table ≡ dict, under churn far beyond capacity."""

    def __init__(self):
        super().__init__()
        self.cache = TableCache(
            InMemoryBucketStore(), capacity_lines=4, eviction_batch=2
        )
        self.table = HashPbnTable(16, store=self.cache)
        self.model = {}

    def _digest(self, key):
        return fingerprint(str(key).encode())

    @rule(key=KEYS)
    def insert(self, key):
        if key not in self.model:
            self.table.insert(self._digest(key), key)
            self.model[key] = key

    @rule(key=KEYS)
    def remove(self, key):
        assert self.table.remove(self._digest(key)) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def lookup(self, key):
        assert self.table.lookup(self._digest(key)) == self.model.get(key)

    @rule()
    def flush(self):
        self.cache.flush_all()

    @invariant()
    def cache_consistent(self):
        self.cache.check_invariants()


class DedupEngineMachine(RuleBasedStateMachine):
    """The dedup engine ≡ a plain block device with snapshots, plus the
    engine invariants (:func:`~repro.analysis.invariants.check_engine`).

    One reference model for every engine flavour: the subclasses below
    run the same rules against parallel, journaled and sharded engines.
    """

    LBAS = st.integers(0, 20)
    CONTENT = st.integers(0, 8)
    NAMES = st.sampled_from(["a", "b"])
    #: 2–6 requests over a narrow LBA/content range, so batches mix
    #: intra-batch duplicates and same-LBA rewrites.
    BATCH = st.lists(st.tuples(LBAS, CONTENT), min_size=2, max_size=6)

    def __init__(self):
        super().__init__()
        self.engine = self.make_engine()
        self.model = {}
        self.snapshots = {}
        base = random.Random(1234)
        self.pool = [base.randbytes(4096) for _ in range(9)]

    def make_engine(self):
        return DedupEngine(num_buckets=256, compressor=ModeledCompressor(0.5))

    def teardown(self):
        self.engine.close()

    @rule(lba=LBAS, content=CONTENT)
    def write(self, lba, content):
        data = self.pool[content]
        self.engine.write(lba, data)
        self.model[lba] = data

    @rule(batch=BATCH)
    def write_batch(self, batch):
        requests = [(lba, self.pool[content]) for lba, content in batch]
        reports = self.engine.write_many(requests)
        assert [len(report.chunks) for report in reports] == [1] * len(batch)
        for lba, data in requests:
            self.model[lba] = data

    @rule(lba=LBAS, other=LBAS, content=CONTENT)
    def retire_then_rewrite(self, lba, other, content):
        """One batch drops the last reference to ``lba``'s content, then
        writes that content again at ``other``."""
        old = self.model.get(lba)
        if old is None or other == lba:
            return
        requests = [(lba, self.pool[content]), (other, old)]
        self.engine.write_many(requests)
        for request_lba, data in requests:
            self.model[request_lba] = data

    @rule(lba=LBAS)
    def read(self, lba):
        expected = self.model.get(lba, ZERO)
        assert self.engine.read(lba, 1).data == expected

    @rule(lba=LBAS, count=st.integers(1, 4))
    def read_range(self, lba, count):
        expected = b"".join(
            self.model.get(lba + index, ZERO) for index in range(count)
        )
        assert self.engine.read(lba, count).data == expected

    @rule(lba=LBAS)
    def trim(self, lba):
        self.engine.trim(lba)
        self.model.pop(lba, None)

    @rule(name=NAMES)
    def create_snapshot(self, name):
        if name in self.snapshots:
            with pytest.raises(SnapshotError):
                self.engine.create_snapshot(name)
            return
        self.engine.create_snapshot(name)
        self.snapshots[name] = dict(self.model)

    @rule(name=NAMES, lba=LBAS)
    def read_snapshot(self, name, lba):
        if name not in self.snapshots:
            with pytest.raises(SnapshotError):
                self.engine.read_snapshot(name, lba, 1)
            return
        expected = self.snapshots[name].get(lba, ZERO)
        assert self.engine.read_snapshot(name, lba, 1).data == expected

    @rule(name=NAMES)
    def delete_snapshot(self, name):
        if name not in self.snapshots:
            with pytest.raises(SnapshotError):
                self.engine.delete_snapshot(name)
            return
        self.engine.delete_snapshot(name)
        del self.snapshots[name]

    @rule()
    def flush(self):
        self.engine.flush()

    @rule()
    def collect(self):
        self.engine.collect_garbage(threshold=0.3)
        for lba, expected in self.model.items():
            assert self.engine.read(lba, 1).data == expected
        for name, view in self.snapshots.items():
            for lba, expected in view.items():
                assert self.engine.read_snapshot(name, lba, 1).data == expected

    @invariant()
    def engine_invariants_hold(self):
        assert check_engine(self.engine) == []
        assert sorted(self.engine.snapshots()) == sorted(self.snapshots)
        # Live uniques never exceed distinct contents in the pool.
        shards = getattr(self.engine, "shards", [self.engine])
        assert sum(len(shard.pbn_map) for shard in shards) <= len(self.pool)


class ParallelDedupEngineMachine(DedupEngineMachine):
    def make_engine(self):
        self.stage_pool = StagePool(2)
        return DedupEngine(
            num_buckets=256, compressor=ModeledCompressor(0.5),
            pool=self.stage_pool,
        )

    def teardown(self):
        super().teardown()
        self.stage_pool.shutdown()


class JournaledDedupEngineMachine(DedupEngineMachine):
    def make_engine(self, containers=None):
        return DedupEngine(
            num_buckets=256, compressor=ModeledCompressor(0.5),
            containers=containers, journal=MetadataJournal(),
        )

    @rule()
    def recover(self):
        """Every public op commits, so a crash now loses nothing: the
        engine rebuilt from the journal image and a copy of the
        containers must answer exactly like the model."""
        image = self.engine.journal.to_bytes()
        recovered = self.make_engine(copy.deepcopy(self.engine.containers))
        recover_into(recovered, image)
        assert recovered.recovery.clean
        self.engine = recovered


class ShardedDedupEngineMachine(DedupEngineMachine):
    SHARDS = 1

    def make_engine(self):
        return ShardedDedupEngine(
            self.SHARDS, num_buckets=256, compressor=ModeledCompressor(0.5)
        )


class FourShardDedupEngineMachine(ShardedDedupEngineMachine):
    SHARDS = 4


TestBTreeStateful = BTreeMachine.TestCase
TestBTreeStateful.settings = settings(
    max_examples=25, stateful_step_count=60, deadline=None
)

TestTableCacheStateful = TableCacheMachine.TestCase
TestTableCacheStateful.settings = settings(
    max_examples=20, stateful_step_count=50, deadline=None
)

ENGINE_SETTINGS = settings(
    max_examples=20, stateful_step_count=50, deadline=None
)

TestDedupEngineStateful = DedupEngineMachine.TestCase
TestDedupEngineStateful.settings = ENGINE_SETTINGS

TestParallelDedupEngineStateful = ParallelDedupEngineMachine.TestCase
TestParallelDedupEngineStateful.settings = ENGINE_SETTINGS

TestJournaledDedupEngineStateful = JournaledDedupEngineMachine.TestCase
TestJournaledDedupEngineStateful.settings = ENGINE_SETTINGS

TestOneShardDedupEngineStateful = ShardedDedupEngineMachine.TestCase
TestOneShardDedupEngineStateful.settings = ENGINE_SETTINGS

TestFourShardDedupEngineStateful = FourShardDedupEngineMachine.TestCase
TestFourShardDedupEngineStateful.settings = ENGINE_SETTINGS
