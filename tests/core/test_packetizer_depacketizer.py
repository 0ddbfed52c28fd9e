"""Packetizer / de-packetizer tests: the full sender->receiver path."""

import pytest

from repro.core.config import FinePackConfig
from repro.core.depacketizer import Depacketizer
from repro.core.packet import FinePackPacket, SubTransaction
from repro.core.packetizer import Packetizer
from repro.core.remote_write_queue import FlushReason, QueuePartition
from repro.interconnect.message import MessageKind

BASE = 1 << 34


@pytest.fixture
def packetizer(config, protocol):
    return Packetizer(config, protocol)


def flush_after(stores, config):
    p = QueuePartition(config, dst=1)
    for addr, size, data in stores:
        p.insert(addr, size, data)
    return p.flush(FlushReason.RELEASE)


class TestPacketizer:
    def test_contiguous_entry_one_sub(self, packetizer, config):
        window = flush_after([(BASE, 8, None), (BASE + 8, 8, None)], config)
        packet = packetizer.packetize(window)
        assert len(packet.subs) == 1
        assert packet.subs[0].length == 16

    def test_non_contiguous_entry_splits(self, packetizer, config):
        """Sub-headers carry no byte enables, so holes force splits."""
        window = flush_after([(BASE, 8, None), (BASE + 16, 8, None)], config)
        packet = packetizer.packetize(window)
        assert [(s.offset % 128, s.length) for s in packet.subs] == [(0, 8), (16, 8)]

    def test_offsets_relative_to_window_base(self, packetizer, config):
        window = flush_after([(BASE + 0x4000, 8, None)], config)
        packet = packetizer.packetize(window)
        assert packet.base_addr == config.window_base(BASE + 0x4000)
        assert packet.base_addr + packet.subs[0].offset == BASE + 0x4000

    def test_stores_absorbed_preserved(self, packetizer, config):
        window = flush_after([(BASE, 8, None)] * 5, config)
        packet = packetizer.packetize(window)
        assert packet.stores_absorbed == 5
        assert len(packet.subs) == 1  # all coalesced into one value

    def test_wire_message_annotations(self, packetizer, config):
        window = flush_after([(BASE, 8, None), (BASE + 256, 4, None)], config)
        packet = packetizer.packetize(window)
        msg = packetizer.to_wire_message(packet, src=0, dst=1, time=9.0)
        assert msg.kind is MessageKind.FINEPACK
        assert msg.issue_time == 9.0
        assert msg.payload_bytes == 12
        starts, lengths = msg.meta["ranges"]
        assert starts.tolist() == [BASE, BASE + 256]
        assert lengths.tolist() == [8, 4]

    def test_carries_data(self, packetizer, config):
        window = flush_after([(BASE, 4, b"abcd")], config)
        packet = packetizer.packetize(window)
        assert packet.subs[0].data == b"abcd"


class TestDepacketizer:
    def test_address_reconstruction(self, config):
        d = Depacketizer(config)
        packet = FinePackPacket(
            base_addr=BASE,
            subs=[SubTransaction(offset=64, length=8), SubTransaction(offset=640, length=4)],
        )
        stores = d.disaggregate(packet)
        assert [(s.addr, s.size) for s in stores] == [(BASE + 64, 8), (BASE + 640, 4)]

    def test_wire_roundtrip(self, config):
        """Encode at the sender, decode at the receiver, byte-exact."""
        d = Depacketizer(config)
        packet = FinePackPacket(
            base_addr=BASE,
            subs=[SubTransaction(offset=0, length=3, data=b"abc")],
        )
        raw = packet.encode_payload(config)
        stores = d.decode_wire_payload(BASE, raw)
        assert stores[0].addr == BASE
        assert stores[0].data == b"abc"

    def test_buffer_admission_stalls_when_full(self, config):
        d = Depacketizer(config, buffer_entries=2, drain_bytes_per_ns=0.001)
        big = FinePackPacket(
            base_addr=0, subs=[SubTransaction(offset=0, length=200)]
        )
        entries = d.entries(big.n_subs, big.payload_data_bytes)
        assert entries == 2  # 5 B sub-header + 200 B in 128 B entries
        t1 = d.admit_one(entries, big.payload_data_bytes, arrival=0.0)
        t2 = d.admit_one(entries, big.payload_data_bytes, arrival=0.0)
        assert t2 >= t1  # second packet waits behind the first

    def test_oversized_packet_rejected(self, config):
        d = Depacketizer(config, buffer_entries=1)
        packet = FinePackPacket(
            base_addr=0,
            subs=[SubTransaction(offset=i * 128, length=128) for i in range(4)],
        )
        entries = d.entries(packet.n_subs, packet.payload_data_bytes)
        with pytest.raises(ValueError):
            d.admit_one(entries, packet.payload_data_bytes, arrival=0.0)

    def test_buffer_bytes(self, config):
        assert Depacketizer(config).buffer_bytes() == 64 * 128


class TestEndToEndThroughQueue:
    def test_sender_receiver_memory_image(self, config, protocol):
        """Stores with data pushed through queue -> packetizer ->
        encode -> decode -> disaggregate reproduce last-writer-wins."""
        part = QueuePartition(config, dst=1)
        packetizer = Packetizer(config, protocol)
        depack = Depacketizer(config)
        writes = [
            (BASE + 0, 4, b"1111"),
            (BASE + 4, 4, b"2222"),
            (BASE + 0, 4, b"3333"),  # overwrites the first
            (BASE + 300, 2, b"zz"),
        ]
        for addr, size, data in writes:
            assert part.insert(addr, size, data) == []
        window = part.flush(FlushReason.RELEASE)
        packet = packetizer.packetize(window)
        raw = packet.encode_payload(config)
        stores = depack.decode_wire_payload(packet.base_addr, raw)

        image = {}
        for s in stores:
            for i in range(s.size):
                image[s.addr + i] = s.data[i : i + 1]
        expected = {}
        for addr, size, data in writes:
            for i in range(size):
                expected[addr + i] = data[i : i + 1]
        assert image == expected
