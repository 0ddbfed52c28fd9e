"""Remote write queue tests (paper Sec. IV-B / Figure 8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FinePackConfig
from repro.core.remote_write_queue import (
    FlushReason,
    QueueEntry,
    QueuePartition,
    RemoteWriteQueue,
)

BASE = 1 << 34  # inside GPU 1's aperture


@pytest.fixture
def part(config):
    return QueuePartition(config, dst=1)


class TestQueueEntryRuns:
    def test_single_run(self):
        e = QueueEntry(line_addr=0, mask=0b1111 << 4)
        assert e.runs(128) == [(4, 4)]

    def test_two_runs(self):
        e = QueueEntry(line_addr=0, mask=(0b11 << 0) | (0b111 << 10))
        assert e.runs(128) == [(0, 2), (10, 3)]

    def test_full_line(self):
        e = QueueEntry(line_addr=0, mask=(1 << 128) - 1)
        assert e.runs(128) == [(0, 128)]

    def test_empty(self):
        assert QueueEntry(line_addr=0).runs(128) == []


class TestPartitionBasics:
    def test_first_store_sets_base(self, part, config):
        part.insert(BASE + 0x1234, 8)
        assert part.base_addr == config.window_base(BASE + 0x1234)
        assert part.entry_count == 1

    def test_same_address_overwrite_is_hit(self, part):
        part.insert(BASE, 8)
        part.insert(BASE, 8)
        assert part.entry_count == 1
        window = part.flush(FlushReason.RELEASE)
        assert window.stores_absorbed == 2
        assert [e.runs(128) for e in window.entries] == [[(0, 8)]]

    def test_same_line_different_bytes_merge(self, part):
        part.insert(BASE, 8)
        part.insert(BASE + 64, 8)
        assert part.entry_count == 1

    def test_different_lines_new_entries(self, part):
        part.insert(BASE, 8)
        part.insert(BASE + 128, 8)
        assert part.entry_count == 2

    def test_available_payload_register(self, part, config):
        part.insert(BASE, 8)
        expected = config.max_payload_bytes - (8 + config.subheader_bytes)
        assert part.available_payload == expected

    def test_merging_adjacent_runs_reduces_cost(self, part, config):
        part.insert(BASE, 4)
        part.insert(BASE + 8, 4)  # two runs: 2 subheaders
        two_runs = part.available_payload
        part.insert(BASE + 4, 4)  # joins them into one run
        assert part.available_payload == two_runs + config.subheader_bytes - 4

    def test_line_crossing_store_splits(self, part):
        part.insert(BASE + 120, 16)
        assert part.entry_count == 2

    def test_non_positive_size(self, part):
        with pytest.raises(ValueError):
            part.insert(BASE, 0)


class TestFlushTriggers:
    def test_window_miss(self):
        cfg = FinePackConfig(subheader_bytes=3)  # 16 KB window
        p = QueuePartition(cfg, dst=1)
        p.insert(BASE, 8)
        flushes = p.insert(BASE + 32 * 1024, 8)
        assert len(flushes) == 1
        assert flushes[0].reason is FlushReason.WINDOW_MISS
        assert flushes[0].stores_absorbed == 1
        # The miss store starts the new window.
        assert p.entry_count == 1

    def test_entries_full(self, config):
        p = QueuePartition(config, dst=1)
        for i in range(config.queue_entries_per_partition):
            assert p.insert(BASE + i * 128, 8) == []
        flushes = p.insert(BASE + 10_000 * 128, 8)
        assert flushes[0].reason is FlushReason.ENTRIES_FULL
        assert flushes[0].stores_absorbed == config.queue_entries_per_partition

    def test_payload_full(self):
        cfg = FinePackConfig(max_payload_bytes=300, queue_entries_per_partition=64)
        p = QueuePartition(cfg, dst=1)
        flushed = []
        for i in range(6):
            flushed += p.insert(BASE + i * 128, 50)
        assert any(f.reason is FlushReason.PAYLOAD_FULL for f in flushed)

    def test_explicit_flush_returns_entries_sorted(self, part):
        part.insert(BASE + 256, 8)
        part.insert(BASE, 8)
        window = part.flush(FlushReason.RELEASE)
        assert [e.line_addr for e in window.entries] == [BASE, BASE + 256]
        assert part.empty

    def test_flush_empty_returns_none(self, part):
        assert part.flush(FlushReason.RELEASE) is None

    def test_flush_resets_register(self, part, config):
        part.insert(BASE, 8)
        part.flush(FlushReason.RELEASE)
        assert part.available_payload == config.max_payload_bytes


class TestLoadMatching:
    def test_overlapping_load_detected(self, part):
        part.insert(BASE + 100, 8)
        assert part.matches_load(BASE + 104, 4)
        assert not part.matches_load(BASE + 108, 4)

    def test_load_spanning_lines(self, part):
        part.insert(BASE + 130, 8)
        assert part.matches_load(BASE + 120, 16)


class TestRemoteWriteQueue:
    def test_partition_per_peer(self, config):
        q = RemoteWriteQueue(config, gpu=1, n_gpus=4)
        assert sorted(q.partitions) == [0, 2, 3]

    def test_no_partition_for_self(self, config):
        q = RemoteWriteQueue(config, gpu=1, n_gpus=4)
        with pytest.raises(KeyError):
            q.partition(1)

    def test_invalid_gpu(self, config):
        with pytest.raises(ValueError):
            RemoteWriteQueue(config, gpu=4, n_gpus=4)

    def test_independent_coalescing_per_destination(self, config):
        q = RemoteWriteQueue(config, gpu=1, n_gpus=4)
        q.insert(0x100, 8, dst=0)
        q.insert((2 << 34) + 0x100, 8, dst=2)
        assert q.partition(0).entry_count == 1
        assert q.partition(2).entry_count == 1

    def test_flush_all_on_release(self, config):
        q = RemoteWriteQueue(config, gpu=1, n_gpus=4)
        q.insert(0x100, 8, dst=0)
        q.insert((2 << 34) + 0x100, 8, dst=2)
        flushed = q.flush_all(FlushReason.RELEASE)
        assert [d for d, _ in flushed] == [0, 2]
        assert all(w.reason is FlushReason.RELEASE for _, w in flushed)

    def test_flush_on_load_only_when_matching(self, config):
        q = RemoteWriteQueue(config, gpu=1, n_gpus=4)
        q.insert(0x100, 8, dst=0)
        assert q.flush_on_load(0x200, 8, dst=0) == []
        hits = q.flush_on_load(0x100, 4, dst=0)
        assert len(hits) == 1
        assert hits[0][1].reason is FlushReason.LOAD_CONFLICT

    def test_sram_budget(self, config):
        q = RemoteWriteQueue(config, gpu=0, n_gpus=16)
        assert q.total_sram_data_bytes() == 120 * 1024


class TestRegisterInvariant:
    @given(
        stores=st.lists(
            st.tuples(st.integers(0, 4095), st.integers(1, 32)),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_available_payload_matches_recomputation(self, stores):
        """The 'available payload length register' always equals the
        payload budget minus the exact packetized cost of the contents."""
        cfg = FinePackConfig()
        p = QueuePartition(cfg, dst=1)
        for off, size in stores:
            p.insert(BASE + off, size)
            exact = sum(p._entry_cost(e) for e in p._entries.values())
            assert p.available_payload == cfg.max_payload_bytes - exact
            assert p.available_payload >= 0
