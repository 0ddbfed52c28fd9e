"""Link serialization timing and statistics tests."""

import pytest

from repro.interconnect.flowcontrol import CreditPool
from repro.interconnect.link import Link
from repro.interconnect.message import MessageKind, WireMessage


def msg(payload=64, overhead=32, kind=MessageKind.STORE, packed=1):
    return WireMessage(
        src=0, dst=1, payload_bytes=payload, overhead_bytes=overhead,
        kind=kind, stores_packed=packed,
    )


@pytest.fixture
def link() -> Link:
    return Link(name="t", bytes_per_ns=32.0, propagation_ns=50.0)


class TestTransmit:
    def test_serialization_time(self, link):
        start, delivered = link.transmit(msg(), ready_time=0.0)
        assert start == 0.0
        assert delivered == pytest.approx(96 / 32 + 50)

    def test_back_to_back_queues(self, link):
        link.transmit(msg(), 0.0)
        start, _ = link.transmit(msg(), 0.0)
        assert start == pytest.approx(3.0)  # after first finishes

    def test_idle_gap_respected(self, link):
        link.transmit(msg(), 0.0)
        start, _ = link.transmit(msg(), 100.0)
        assert start == 100.0

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link(name="bad", bytes_per_ns=0.0)


class TestStats:
    def test_accumulation(self, link):
        link.transmit(msg(payload=100, overhead=28), 0.0)
        link.transmit(msg(payload=28, overhead=36, kind=MessageKind.FINEPACK, packed=10), 0.0)
        s = link.stats
        assert s.messages == 2
        assert s.payload_bytes == 128
        assert s.overhead_bytes == 64
        assert s.wire_bytes == 192
        assert s.goodput == pytest.approx(128 / 192)

    def test_busy_time(self, link):
        link.transmit(msg(), 0.0)
        assert link.stats.busy_time_ns == pytest.approx(3.0)

    def test_reset(self, link):
        link.transmit(msg(), 0.0)
        link.reset()
        assert link.busy_until == 0.0
        assert link.stats.messages == 0


class TestCredits:
    def test_stalls_when_receiver_full(self):
        pool = CreditPool(
            header_credits=1, data_credit_bytes=128, drain_bytes_per_ns=1.0
        )
        link = Link(name="c", bytes_per_ns=1000.0, propagation_ns=0.0, credits=pool)
        _, d1 = link.transmit(msg(payload=128, overhead=0), 0.0)
        # Second message must wait for the first to drain (128 ns).
        start2, _ = link.transmit(msg(payload=128, overhead=0), 0.0)
        assert start2 >= d1 + 128 - 1e-9

    def test_no_stall_with_room(self):
        pool = CreditPool(
            header_credits=8, data_credit_bytes=4096, drain_bytes_per_ns=1000.0
        )
        link = Link(name="c", bytes_per_ns=1000.0, propagation_ns=0.0, credits=pool)
        link.transmit(msg(), 0.0)
        start, _ = link.transmit(msg(), 0.0)
        assert start < 1.0


class TestErrorRate:
    def test_clean_link_never_replays(self, link):
        link.transmit(msg(payload=1 << 20, overhead=0), 0.0)
        assert link.stats.replays == 0

    def test_replays_counted_and_deterministic(self):
        def one_run():
            l = Link(name="noisy", bytes_per_ns=32.0, error_rate=1e-4)
            for i in range(50):
                l.transmit(msg(payload=4096, overhead=0), float(i))
            return l.stats.replays, l.stats.replay_bytes

        first, again = one_run(), one_run()
        assert first == again
        assert first[0] > 0
        assert first[1] >= first[0] * 4096

    def test_extreme_rate_saturates_replay_cap(self):
        from repro.interconnect.link import MAX_REPLAYS

        l = Link(name="broken", bytes_per_ns=32.0, error_rate=0.9)
        link_msg = msg(payload=4096, overhead=0)
        l.transmit(link_msg, 0.0)
        assert l.stats.replays == MAX_REPLAYS
        assert l.stats.replay_saturations == 1
        # The replay accounting survives in the fault summary.
        assert l.stats.fault_summary()["replay_saturations"] == 1

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Link(name="bad", bytes_per_ns=1.0, error_rate=1.5)

    def test_oversized_payload_streams_through_credited_link(self):
        pool = CreditPool(
            header_credits=4, data_credit_bytes=256, drain_bytes_per_ns=1.0
        )
        link = Link(name="c", bytes_per_ns=1000.0, propagation_ns=0.0, credits=pool)
        # Larger than the whole pool: admitted by streaming, not rejected.
        _, delivery = link.transmit(msg(payload=1024, overhead=0), 0.0)
        assert delivery > 0.0
