"""Byte-accounting ledger tests (Figure 10 classification)."""

import numpy as np
import pytest

from repro.gpu.compute import KernelWork
from repro.interconnect.message import MessageKind, WireMessage
from repro.perf.batch import MessageBatch
from repro.sim.metrics import ByteBreakdown, PacketStats, RunMetrics, classify_egress
from repro.trace.intervals import IntervalSet
from repro.trace.stream import KernelPhase, RemoteStoreBatch


def msg(ranges, overhead=32, kind=MessageKind.STORE, packed=1):
    starts = np.asarray([r[0] for r in ranges], dtype=np.int64)
    lens = np.asarray([r[1] for r in ranges], dtype=np.int64)
    return WireMessage(
        src=0,
        dst=1,
        payload_bytes=int(lens.sum()),
        overhead_bytes=overhead,
        kind=kind,
        stores_packed=packed,
        meta={"ranges": (starts, lens)},
    )


def iset(*ranges):
    return IntervalSet.from_ranges([r[0] for r in ranges], [r[1] for r in ranges])


def classify(messages, footprint, reads):
    """Classify one GPU 0 -> GPU 1 message group through the DES's
    classifier; GPU 0's phase stores exactly ``footprint`` for GPU 1."""
    stores = RemoteStoreBatch(
        footprint.starts,
        footprint.ends - footprint.starts,
        np.ones(len(footprint), dtype=np.int64),
    )
    phase = KernelPhase(gpu=0, work=KernelWork(0.0, 0.0), stores=stores)
    batch = MessageBatch.from_messages(0, messages)
    return classify_egress([batch], [phase], {1: reads})


class TestClassification:
    def test_all_useful(self):
        b = classify([msg([(0, 8)])], iset((0, 8)), iset((0, 8)))
        assert (b.useful, b.wasted, b.overhead) == (8, 0, 32)

    def test_redundant_same_address_twice(self):
        """Two deliveries of the same byte: one is redundant."""
        b = classify(
            [msg([(0, 8)]), msg([(0, 8)])], iset((0, 8)), iset((0, 8))
        )
        assert b.useful == 8
        assert b.wasted_redundant == 8
        assert b.wasted_unread == 0

    def test_unread_bytes(self):
        b = classify([msg([(0, 16)])], iset((0, 16)), iset((0, 4)))
        assert b.useful == 4
        assert b.wasted_unread == 12

    def test_overtransfer_outside_footprint(self):
        """DMA copying un-updated bytes: read but never written."""
        b = classify([msg([(0, 100)])], iset((0, 20)), iset((0, 100)))
        assert b.useful == 20
        assert b.wasted_unread == 80

    def test_empty_messages(self):
        b = classify([], iset((0, 8)), iset((0, 8)))
        assert b.total == 0

    def test_range_annotation_required(self):
        bad = WireMessage(src=0, dst=1, payload_bytes=8, overhead_bytes=0)
        with pytest.raises(ValueError, match="range"):
            classify([bad], iset((0, 8)), iset((0, 8)))

    def test_range_payload_mismatch_detected(self):
        m = msg([(0, 8)])
        m.payload_bytes = 99
        with pytest.raises(ValueError, match="claim"):
            classify([m], iset((0, 8)), iset((0, 8)))


class TestByteBreakdown:
    def test_add_and_totals(self):
        a = ByteBreakdown(useful=10, wasted_redundant=2, wasted_unread=3, overhead=5)
        b = ByteBreakdown(useful=1, wasted_redundant=1, wasted_unread=1, overhead=1)
        a.add(b)
        assert a.payload == 18
        assert a.wasted == 7
        assert a.total == 24
        assert a.as_dict()["total"] == 24


class TestPacketStats:
    def test_mean_stores_per_packet(self):
        s = PacketStats()
        s.record(msg([(0, 8)], kind=MessageKind.FINEPACK, packed=10))
        s.record(msg([(0, 8)], kind=MessageKind.FINEPACK, packed=20))
        s.record(msg([(0, 8)], kind=MessageKind.DMA_CHUNK, packed=0))
        assert s.mean_stores_per_packet == 15.0
        assert s.messages == 3
        assert s.by_kind[MessageKind.FINEPACK] == 2

    def test_empty(self):
        assert PacketStats().mean_stores_per_packet == 0.0


class TestRunMetrics:
    def test_derived_quantities(self):
        m = RunMetrics(workload="w", paradigm="p", n_gpus=4)
        m.bytes = ByteBreakdown(useful=60, wasted_redundant=20, wasted_unread=0, overhead=20)
        assert m.goodput == pytest.approx(0.8)
        assert m.efficiency == pytest.approx(0.6)
        assert m.summary()["workload"] == "w"

    def test_zero_traffic(self):
        m = RunMetrics(workload="w", paradigm="infinite", n_gpus=4)
        assert m.goodput == 0.0 and m.efficiency == 0.0
