"""Tests for the paper's optional/extension designs: timeout flush
(Sec. IV-B), multi-window partitions (Sec. IV-C), and the NVLink
embedding (Sec. IV-C)."""

import pytest

from repro.core.config import FinePackConfig
from repro.core.egress import FinePackEgress
from repro.core.nvlink_embedding import NVLinkFinePackEmbedding
from repro.core.packet import FinePackPacket, SubTransaction
from repro.core.remote_write_queue import (
    FlushReason,
    MultiWindowPartition,
    RemoteWriteQueue,
)
from repro.interconnect.message import MessageKind
from repro.interconnect.nvlink import NVLinkProtocol
from repro.obs import Tracer

BASE = 1 << 34


class TestTimeoutFlush:
    def test_idle_partition_flushes_at_deadline(self, config, protocol):
        eg = FinePackEgress(
            config, protocol, src=0, n_gpus=2, flush_timeout_ns=1_000.0
        )
        eg.on_store(BASE, 8, 1, time=0.0)
        msgs = eg.on_store(BASE + 4096, 8, 1, time=5_000.0)
        assert len(msgs) == 1
        assert msgs[0].meta["packet"].stores_absorbed == 1
        # The flush is stamped when the hardware timer would have fired.
        assert msgs[0].issue_time == pytest.approx(1_000.0)
        # The new store is buffered fresh.
        assert len(eg.on_release(6_000.0)) == 1

    def test_active_partition_not_flushed(self, config, protocol):
        eg = FinePackEgress(
            config, protocol, src=0, n_gpus=2, flush_timeout_ns=1_000.0
        )
        eg.on_store(BASE, 8, 1, time=0.0)
        assert eg.on_store(BASE + 128, 8, 1, time=500.0) == []
        assert eg.on_store(BASE + 256, 8, 1, time=1_400.0) == []  # idle 900 ns only

    def test_timeout_reason_recorded(self, config, protocol):
        eg = FinePackEgress(
            config, protocol, src=0, n_gpus=2, flush_timeout_ns=100.0
        )
        eg.tracer = Tracer(check_invariants=False)
        eg.on_store(BASE, 8, 1, time=0.0)
        msgs = eg.on_store(BASE + 128, 8, 1, time=10_000.0)
        assert eg.tracer.counters.snapshot()["rwq_flushes:timeout"] == 1
        assert [(m.kind, m.issue_time) for m in msgs] == [
            (MessageKind.FINEPACK, 100.0)
        ]

    def test_disabled_by_default(self, config, protocol):
        eg = FinePackEgress(config, protocol, src=0, n_gpus=2)
        eg.on_store(BASE, 8, 1, time=0.0)
        assert eg.on_store(BASE + 128, 8, 1, time=1e12) == []

    def test_invalid_timeout(self, config, protocol):
        with pytest.raises(ValueError):
            FinePackEgress(config, protocol, 0, 2, flush_timeout_ns=0.0)


class TestMultiWindowPartition:
    def _cfg(self):
        return FinePackConfig(subheader_bytes=3)  # 16 KB windows

    def test_two_regions_no_thrash(self):
        """Alternating far-apart regions thrash a single window but
        coexist in a two-window partition (the Sec. IV-C motivation)."""
        cfg = self._cfg()
        multi = MultiWindowPartition(cfg, dst=1, windows=2)
        flushes = []
        for i in range(16):
            region = BASE if i % 2 == 0 else BASE + (1 << 20)
            flushes += multi.insert(region + (i // 2) * 128, 8)
        assert flushes == []  # both regions held open

        single = RemoteWriteQueue(cfg, gpu=0, n_gpus=2).partition(1)
        thrash = []
        for i in range(16):
            region = BASE if i % 2 == 0 else BASE + (1 << 20)
            thrash += single.insert(region + (i // 2) * 128, 8)
        assert len(thrash) == 15  # every store after the first misses

    def test_lru_eviction_when_all_windows_busy(self):
        cfg = self._cfg()
        multi = MultiWindowPartition(cfg, dst=1, windows=2)
        multi.insert(BASE, 8)
        multi.insert(BASE + (1 << 20), 8)
        flushes = multi.insert(BASE + (2 << 20), 8)
        assert len(flushes) == 1
        assert flushes[0].reason is FlushReason.WINDOW_EVICTION
        assert flushes[0].base_addr == cfg.window_base(BASE)  # LRU victim

    def test_lru_refresh_on_reuse(self):
        cfg = self._cfg()
        multi = MultiWindowPartition(cfg, dst=1, windows=2)
        multi.insert(BASE, 8)
        multi.insert(BASE + (1 << 20), 8)
        multi.insert(BASE + 64, 8)  # refresh the first window
        flushes = multi.insert(BASE + (2 << 20), 8)
        assert flushes[0].base_addr == cfg.window_base(BASE + (1 << 20))

    def test_flush_returns_all_windows(self):
        multi = MultiWindowPartition(self._cfg(), dst=1, windows=2)
        multi.insert(BASE, 8)
        multi.insert(BASE + (1 << 20), 8)
        windows = multi.flush(FlushReason.RELEASE)
        assert len(windows) == 2
        assert multi.empty

    def test_entry_budget_divided(self):
        cfg = FinePackConfig(queue_entries_per_partition=64)
        multi = MultiWindowPartition(cfg, dst=1, windows=4)
        assert multi._subs[0].config.queue_entries_per_partition == 16

    def test_too_many_windows_rejected(self):
        cfg = FinePackConfig(queue_entries_per_partition=2)
        with pytest.raises(ValueError):
            MultiWindowPartition(cfg, dst=1, windows=4)

    def test_matches_load_across_windows(self):
        multi = MultiWindowPartition(self._cfg(), dst=1, windows=2)
        multi.insert(BASE, 8)
        multi.insert(BASE + (1 << 20), 8)
        assert multi.matches_load(BASE + (1 << 20), 4)
        assert not multi.matches_load(BASE + (3 << 20), 4)

    def test_egress_integration(self, protocol):
        cfg = self._cfg()
        eg = FinePackEgress(cfg, protocol, src=0, n_gpus=2, windows=2)
        eg.on_store(BASE, 8, 1, 0.0)
        eg.on_store(BASE + (1 << 20), 8, 1, 0.0)
        msgs = eg.on_release(0.0)
        assert len(msgs) == 2


class TestNVLinkEmbedding:
    def _packet(self, n, length=8, stride=128):
        return FinePackPacket(
            base_addr=BASE,
            subs=[
                SubTransaction(offset=i * stride, length=length) for i in range(n)
            ],
            stores_absorbed=n,
        )

    def test_small_window_single_packet(self, config):
        emb = NVLinkFinePackEmbedding(config)
        payload, overhead = emb.wire_cost(self._packet(4))
        assert payload == 32
        # 1 header flit + 4 sub-headers + pad of (32+20) to flits.
        inner = 4 * (8 + config.subheader_bytes)
        pad = -(-inner // 16) * 16 - inner
        assert overhead == 16 + 4 * config.subheader_bytes + pad

    def test_large_window_splits_into_packet_train(self, config):
        emb = NVLinkFinePackEmbedding(config)
        payload, overhead = emb.wire_cost(self._packet(64))
        # 64 subs x 13 B inner = 832 B -> at least 4 NVLink packets.
        assert overhead >= 4 * 16

    def test_beats_raw_nvlink_stores(self, config):
        emb = NVLinkFinePackEmbedding(config)
        packet = self._packet(40, length=8)
        assert emb.improvement_over_raw(packet) > 1.5

    def test_win_comparable_to_pcie(self, config, protocol):
        """Paper Sec. IV-C: the small-packet inefficiency of PCIe and
        NVLink is similar, so packing should "achieve similar benefits"
        on both -- the gains land in the same ~3x class."""
        emb = NVLinkFinePackEmbedding(config)
        packet = self._packet(64, length=8)
        nvlink_gain = emb.improvement_over_raw(packet)
        fp_payload, fp_overhead = packet.wire_cost(config, protocol)
        p, o = protocol.store_wire_cost(8)
        pcie_gain = (64 * (p + o)) / (fp_payload + fp_overhead)
        assert nvlink_gain > 2.0 and pcie_gain > 2.0
        assert 0.6 < nvlink_gain / pcie_gain < 1.6

    def test_oversized_sub_rejected(self, config):
        emb = NVLinkFinePackEmbedding(config)
        packet = FinePackPacket(
            base_addr=BASE, subs=[SubTransaction(offset=0, length=300)]
        )
        with pytest.raises(ValueError):
            emb.wire_cost(packet)

    def test_empty_packet(self, config):
        emb = NVLinkFinePackEmbedding(config)
        assert emb.wire_cost(FinePackPacket(base_addr=BASE)) == (0, 0)
