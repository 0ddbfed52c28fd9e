"""Unit-level equivalence of each vectorized primitive vs its scalar
reference: RWQ entry costing, run extraction, batch wire costing,
batch link serialization, and the message order the DES event loop
dispatches."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.config import FinePackConfig
from repro.core.packetizer import Packetizer
from repro.core.remote_write_queue import (
    FlushedWindow,
    FlushReason,
    QueueEntry,
    RemoteWriteQueue,
)
from repro.interconnect.flowcontrol import CreditPool
from repro.interconnect.link import CHAIN_ARRAY_MIN, Link
from repro.interconnect.message import KIND_CODES, MessageKind, WireMessage
from repro.interconnect.pcie import PCIE_GEN3, PCIE_GEN4, PCIeProtocol
from repro.obs import EventKind, Tracer
from repro.perf import scalar_mode, scalar_reference
from repro.perf.batch import MessageBatch, masks_to_runs
from repro.run import RunContext, RunSpec
from repro.workloads import ALSWorkload


def random_masks(rng, count: int, entry_bytes: int = 128) -> list[int]:
    masks = []
    for _ in range(count):
        mask = 0
        for _ in range(rng.integers(1, 6)):
            start = int(rng.integers(0, entry_bytes))
            length = int(rng.integers(1, entry_bytes - start + 1))
            mask |= ((1 << length) - 1) << start
        masks.append(mask)
    return masks


class TestMasksToRuns:
    def test_matches_scalar_runs(self, rng):
        entry_bytes = 128
        masks = random_masks(rng, 200, entry_bytes)
        rows, starts, lengths = masks_to_runs(masks, entry_bytes)
        expected = [
            (row, start, length)
            for row, mask in enumerate(masks)
            for start, length in QueueEntry(0, mask).runs(entry_bytes)
        ]
        got = list(zip(rows.tolist(), starts.tolist(), lengths.tolist()))
        assert got == expected

    def test_rejects_unaligned_entry_bytes(self):
        with pytest.raises(ValueError):
            masks_to_runs([1], 100)


def rwq_flush_stream(fast: bool, rng) -> list:
    """Drive an RWQ through a fixed store sequence; serialize its flushes."""
    with scalar_reference(not fast):
        queue = RemoteWriteQueue(FinePackConfig(), gpu=0, n_gpus=2)
        base = 1 << 20
        flushes = []
        for _ in range(400):
            addr = base + int(rng.integers(0, 4096))
            size = int(rng.integers(1, 65))
            flushes += queue.insert(addr, size, dst=1)
        flushes += queue.flush_all(FlushReason.RELEASE)
    return [
        (dst, w.base_addr, w.reason, [(e.line_addr, e.mask) for e in w.entries])
        for dst, w in flushes
    ]


class TestRWQEntryCost:
    def test_same_flush_stream(self):
        scalar = rwq_flush_stream(False, np.random.default_rng(7))
        fast = rwq_flush_stream(True, np.random.default_rng(7))
        assert fast == scalar


class TestPacketizer:
    def packetize(self, fast: bool, masks, protocol) -> list:
        with scalar_reference(not fast):
            pk = Packetizer(FinePackConfig(), protocol)
            base = 1 << 21
            window = FlushedWindow(
                base_addr=base,
                entries=[
                    QueueEntry(line_addr=base + i * 128, mask=m)
                    for i, m in enumerate(masks)
                ],
                stores_absorbed=len(masks),
                reason=FlushReason.RELEASE,
            )
            packet = pk.packetize(window)
        return [(s.offset, s.length) for s in packet.subs]

    def test_same_subtransactions(self, rng, protocol):
        masks = random_masks(rng, 30)
        assert self.packetize(True, masks, protocol) == self.packetize(
            False, masks, protocol
        )


class TestStoreWireCostBatch:
    @pytest.mark.parametrize("gen", (PCIE_GEN3, PCIE_GEN4))
    @pytest.mark.parametrize("flit_mode", (False, True))
    def test_matches_scalar(self, rng, gen, flit_mode):
        protocol = PCIeProtocol(gen, flit_mode=flit_mode)
        sizes = rng.integers(1, protocol.max_payload + 1, size=500)
        payload, overhead = protocol.store_wire_cost_batch(sizes)
        for i, size in enumerate(sizes.tolist()):
            p, o = protocol.store_wire_cost(size)
            assert (payload[i], overhead[i]) == (p, o)

    def test_raises_like_scalar(self, protocol):
        with pytest.raises(ValueError):
            protocol.store_wire_cost_batch(np.array([16, 0, 32]))
        with pytest.raises(ValueError):
            protocol.store_wire_cost_batch(np.array([protocol.max_payload + 1]))


def wire(size: int, issue: float, kind=MessageKind.STORE) -> WireMessage:
    return WireMessage(
        src=0,
        dst=1,
        payload_bytes=size,
        overhead_bytes=24,
        kind=kind,
        issue_time=issue,
        stores_packed=1,
        meta={"range1": (64 * int(issue), size)},
    )


class TestTransmitBatch:
    def test_matches_sequential_transmit(self, rng):
        # Both sides of the cutoff: the per-message loop and the
        # busy-period array chain.
        for count in (100, 3 * CHAIN_ARRAY_MIN):
            msgs = [
                wire(int(rng.integers(1, 256)), float(t))
                for t in np.sort(rng.uniform(0, 5 * count, size=count))
            ]
            a = Link("a", bytes_per_ns=2.0)
            seq = [a.transmit(m, m.issue_time)[1] for m in msgs]

            b = Link("b", bytes_per_ns=2.0)
            batch = MessageBatch.from_messages(0, msgs)
            deliveries = b.transmit_batch(
                batch.issue, batch.wire, batch.payload, batch.overhead
            )
            assert deliveries.tolist() == seq
            assert b.busy_until == a.busy_until
            assert b.stats == a.stats

    def test_rejects_stateful_links(self):
        link = Link("c", bytes_per_ns=2.0, credits=CreditPool())
        with pytest.raises(RuntimeError):
            link.transmit_batch(
                np.zeros(1),
                np.ones(1),
                np.ones(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
            )


class TestFromMessages:
    def test_fields_roundtrip(self, rng):
        msgs = [
            wire(int(rng.integers(1, 128)), float(i), MessageKind.FINEPACK)
            for i in range(20)
        ]
        batch = MessageBatch.from_messages(0, msgs)
        assert batch.src == 0
        assert batch.dst.tolist() == [1] * 20
        assert batch.payload.tolist() == [m.payload_bytes for m in msgs]
        assert batch.overhead.tolist() == [24] * 20
        assert batch.issue.tolist() == [m.issue_time for m in msgs]
        assert batch.kind.tolist() == [KIND_CODES[MessageKind.FINEPACK]] * 20
        assert batch.packed.tolist() == [1] * 20
        assert batch.counts.tolist() == [1] * 20
        assert batch.starts.tolist() == [m.meta["range1"][0] for m in msgs]
        assert batch.lengths.tolist() == [m.payload_bytes for m in msgs]

    def test_range_arrays_in_message_order(self):
        many = wire(12, 1.0)
        many.meta = {"ranges": (np.array([100, 200, 300]), np.array([2, 4, 6]))}
        none = wire(0, 2.0)
        none.meta = {"ranges": (np.empty(0, dtype=np.int64),) * 2}
        batch = MessageBatch.from_messages(0, [wire(8, 0.0), many, none])
        assert batch.counts.tolist() == [1, 3, 0]
        assert batch.starts.tolist() == [0, 100, 200, 300]
        assert batch.lengths.tolist() == [8, 2, 4, 6]

    def test_empty(self):
        batch = MessageBatch.from_messages(3, [])
        assert batch.src == 3 and len(batch) == 0
        assert batch.starts.dtype == np.int64 and batch.issue.dtype == np.float64

    def test_refuses_unannotated_and_foreign_messages(self):
        bare = wire(8, 0.0)
        bare.meta = {}
        with pytest.raises(ValueError, match="range annotations"):
            MessageBatch.from_messages(0, [bare])
        with pytest.raises(ValueError, match="not from GPU 2"):
            MessageBatch.from_messages(2, [wire(8, 0.0)])

    def test_select_keeps_each_message_with_its_ranges(self):
        many = wire(12, 1.0)
        many.meta = {"ranges": (np.array([100, 200, 300]), np.array([2, 4, 6]))}
        batch = MessageBatch.from_messages(0, [wire(8, 0.0), many, wire(4, 2.0)])
        kept = batch.select(np.array([False, True, True]))
        assert kept.payload.tolist() == [12, 4]
        assert kept.counts.tolist() == [3, 1]
        assert kept.starts.tolist() == [100, 200, 300, 128]


@lru_cache(maxsize=None)
def dispatched(fast: bool) -> tuple[tuple, ...]:
    """Every message a traced FinePack run routes, in routing order.

    A tracer keeps both modes on the event loop; the mode only picks
    how FinePack's egress finds its flushes (the flush search, or the
    per-op queue replay).
    """
    tracer = Tracer(sample_every_ns=None)
    workload = ALSWorkload(n_users=2_000, n_items=500, avg_ratings=8)
    spec = RunSpec.for_workload(workload, n_gpus=4, iterations=2)
    with scalar_reference(not fast):
        RunContext(spec, tracer=tracer).run()
    fields = ("src", "dst", "payload_bytes", "overhead_bytes", "stores_packed")
    return tuple(
        (e.time_ns, e.name, *(e.attrs[f] for f in fields))
        for e in tracer.events
        if e.kind is EventKind.MSG_INJECTED
    )


class TestEngineFastRun:
    @pytest.mark.parametrize("fast", (False, True))
    def test_same_dispatch_order(self, fast):
        seen = dispatched(fast)
        times = [s[0] for s in seen]
        # Enough traffic to matter, with messages issued at equal times.
        assert len(seen) > 50 and len(set(times)) < len(times)
        assert times == sorted(times)
        assert seen == dispatched(not fast)


class TestScalarSwitch:
    def test_scoped_and_restored(self):
        assert not scalar_mode()
        with scalar_reference():
            assert scalar_mode()
            with scalar_reference(False):
                assert not scalar_mode()
            assert scalar_mode()
        assert not scalar_mode()
        with pytest.raises(RuntimeError):
            with scalar_reference():
                raise RuntimeError("boom")
        assert not scalar_mode()
