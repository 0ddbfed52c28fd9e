"""Egress engine tests: passthrough, write-combining, FinePack."""

import pytest

from repro.core.config import FinePackConfig
from repro.core.egress import (
    FinePackEgress,
    PassthroughEgress,
    WriteCombiningEgress,
)
from repro.interconnect.message import MessageKind

BASE = 1 << 34  # GPU 1's aperture


class TestPassthrough:
    def test_one_message_per_store(self, protocol):
        eg = PassthroughEgress(protocol, src=0)
        msgs = eg.on_store(BASE, 8, dst=1, time=3.0)
        assert len(msgs) == 1
        m = msgs[0]
        assert m.kind is MessageKind.STORE
        assert (m.payload_bytes, m.issue_time, m.stores_packed) == (8, 3.0, 1)

    def test_release_is_noop(self, protocol):
        eg = PassthroughEgress(protocol, src=0)
        assert eg.on_release(0.0) == []

    def test_atomic(self, protocol):
        eg = PassthroughEgress(protocol, src=0)
        msgs = eg.on_atomic(BASE, 8, dst=1, time=0.0)
        assert msgs[0].kind is MessageKind.ATOMIC

    def test_stats(self, protocol):
        eg = PassthroughEgress(protocol, src=0)
        msgs = eg.on_store(BASE, 8, 1, 0.0) + eg.on_store(BASE, 8, 1, 0.0)
        assert [(m.kind, m.stores_packed) for m in msgs] == [
            (MessageKind.STORE, 1),
            (MessageKind.STORE, 1),
        ]


class TestWriteCombining:
    def test_same_line_stores_combine(self, protocol):
        eg = WriteCombiningEgress(protocol, src=0, n_gpus=2)
        assert eg.on_store(BASE, 8, 1, 0.0) == []
        assert eg.on_store(BASE + 8, 8, 1, 0.0) == []
        msgs = eg.on_release(1.0)
        assert len(msgs) == 1
        assert msgs[0].payload_bytes == 16
        assert msgs[0].stores_packed == 2

    def test_non_contiguous_line_emits_runs(self, protocol):
        eg = WriteCombiningEgress(protocol, src=0, n_gpus=2)
        eg.on_store(BASE, 8, 1, 0.0)
        eg.on_store(BASE + 64, 8, 1, 0.0)
        msgs = eg.on_release(0.0)
        assert len(msgs) == 2
        assert sum(m.payload_bytes for m in msgs) == 16

    def test_capacity_eviction_fifo(self, protocol):
        eg = WriteCombiningEgress(protocol, src=0, n_gpus=2, entries=2)
        eg.on_store(BASE, 8, 1, 0.0)
        eg.on_store(BASE + 128, 8, 1, 0.0)
        msgs = eg.on_store(BASE + 256, 8, 1, 0.0)
        assert len(msgs) == 1  # oldest line evicted
        assert msgs[0].meta["range1"] == (BASE, 8)

    def test_atomic_flushes_matching_line_first(self, protocol):
        eg = WriteCombiningEgress(protocol, src=0, n_gpus=2)
        eg.on_store(BASE, 8, 1, 0.0)
        msgs = eg.on_atomic(BASE + 8, 8, 1, 0.0)
        assert [m.kind for m in msgs] == [MessageKind.COMBINED_STORE, MessageKind.ATOMIC]

    def test_load_flushes_matching_lines(self, protocol):
        eg = WriteCombiningEgress(protocol, src=0, n_gpus=2)
        eg.on_store(BASE, 8, 1, 0.0)
        msgs = eg.on_remote_load(BASE, 4, 1, 0.0)
        assert len(msgs) == 1
        assert eg.on_release(0.0) == []

    def test_line_crossing_store(self, protocol):
        eg = WriteCombiningEgress(protocol, src=0, n_gpus=2)
        eg.on_store(BASE + 120, 16, 1, 0.0)
        msgs = eg.on_release(0.0)
        assert sum(m.payload_bytes for m in msgs) == 16
        assert len(msgs) == 2  # two lines


class TestFinePackEgress:
    def test_buffers_until_release(self, config, protocol):
        eg = FinePackEgress(config, protocol, src=0, n_gpus=2)
        assert eg.on_store(BASE, 8, 1, 0.0) == []
        msgs = eg.on_release(5.0)
        assert len(msgs) == 1
        assert msgs[0].kind is MessageKind.FINEPACK
        assert msgs[0].issue_time == 5.0

    def test_window_miss_emits_packet(self, protocol):
        cfg = FinePackConfig(subheader_bytes=3)  # 16 KB window
        eg = FinePackEgress(cfg, protocol, src=0, n_gpus=2)
        eg.on_store(BASE, 8, 1, 0.0)
        msgs = eg.on_store(BASE + (1 << 20), 8, 1, 1.0)
        assert len(msgs) == 1
        assert msgs[0].stores_packed == 1

    def test_packing_many_stores(self, config, protocol):
        eg = FinePackEgress(config, protocol, src=0, n_gpus=2)
        for i in range(40):
            assert eg.on_store(BASE + i * 128, 8, 1, 0.0) == []
        msgs = eg.on_release(0.0)
        assert len(msgs) == 1
        assert msgs[0].stores_packed == 40
        assert msgs[0].payload_bytes == 320

    def test_atomic_flushes_conflicting_window(self, config, protocol):
        eg = FinePackEgress(config, protocol, src=0, n_gpus=2)
        eg.on_store(BASE, 8, 1, 0.0)
        msgs = eg.on_atomic(BASE + 4, 4, 1, 0.0)
        kinds = [m.kind for m in msgs]
        assert kinds == [MessageKind.FINEPACK, MessageKind.ATOMIC]

    def test_atomic_without_conflict_passes_through(self, config, protocol):
        eg = FinePackEgress(config, protocol, src=0, n_gpus=2)
        eg.on_store(BASE, 8, 1, 0.0)
        msgs = eg.on_atomic(BASE + 4096, 4, 1, 0.0)
        assert [m.kind for m in msgs] == [MessageKind.ATOMIC]
        assert len(eg.on_release(0.0)) == 1  # store still buffered

    def test_load_conflict_flushes(self, config, protocol):
        eg = FinePackEgress(config, protocol, src=0, n_gpus=2)
        eg.on_store(BASE, 8, 1, 0.0)
        msgs = eg.on_remote_load(BASE + 4, 2, 1, 0.0)
        assert len(msgs) == 1
        assert eg.on_release(0.0) == []

    def test_load_without_conflict_no_flush(self, config, protocol):
        eg = FinePackEgress(config, protocol, src=0, n_gpus=2)
        eg.on_store(BASE, 8, 1, 0.0)
        assert eg.on_remote_load(BASE + 512, 8, 1, 0.0) == []

    def test_per_destination_isolation(self, config, protocol):
        eg = FinePackEgress(config, protocol, src=0, n_gpus=4)
        eg.on_store(BASE, 8, 1, 0.0)
        eg.on_store((2 << 34), 8, 2, 0.0)
        msgs = eg.on_release(0.0)
        assert sorted(m.dst for m in msgs) == [1, 2]

    def test_wire_efficiency_beats_passthrough(self, config, protocol):
        """The headline mechanism: ~3x wire efficiency for 8 B scatters."""
        fp = FinePackEgress(config, protocol, src=0, n_gpus=2)
        pt = PassthroughEgress(protocol, src=0)
        addrs = [BASE + i * 256 for i in range(512)]
        fp_msgs, pt_bytes = [], 0
        for a in addrs:
            fp_msgs += fp.on_store(a, 8, 1, 0.0)
            pt_bytes += pt.on_store(a, 8, 1, 0.0)[0].wire_bytes
        fp_msgs += fp.on_release(0.0)
        fp_bytes = sum(m.wire_bytes for m in fp_msgs)
        assert pt_bytes / fp_bytes > 2.5
