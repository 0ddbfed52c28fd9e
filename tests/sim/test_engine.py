"""The DES event loop.

:meth:`MultiGPUSystem._transmit_events` routes one iteration's messages
one at a time, in stably sorted issue order, then drains each into its
destination.  These tests feed it message batches and drive it with a
recording topology, so the order and times of every ``route`` call are
visible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.state import RouteBlockedError
from repro.gpu.compute import ComputeModel
from repro.interconnect.message import MessageKind, WireMessage
from repro.interconnect.pcie import PCIE_GEN4, PCIeProtocol
from repro.obs import EventKind, Tracer
from repro.perf.batch import MessageBatch
from repro.sim.metrics import RunMetrics
from repro.sim.system import _DRAIN_RATE, MultiGPUSystem

LATENCY = 10.0
#: Message tags, carried as the index in ``stores_packed``: the
#: transport hands the topology bare messages.
TAGS = ["a", "b", "c", "first", "second", "third", "late", "early", "big",
        "small", "lost", "fp"]


class RecordingTopology:
    """Delivers every message ``LATENCY`` ns after it is routed and
    records each ``route`` call as ``(tag, ready_time)``.  Messages
    whose tag is in ``blocked`` have no live path."""

    def __init__(self, blocked=()) -> None:
        self.blocked = set(blocked)
        self.routed: list[tuple[str, float]] = []

    def route(self, msg: WireMessage, ready_time: float) -> float:
        tag = TAGS[msg.stores_packed]
        self.routed.append((tag, ready_time))
        if tag in self.blocked:
            raise RouteBlockedError(msg.src, msg.dst, ready_time, ("l0",))
        return ready_time + LATENCY


class RecordingDepacketizer:
    def __init__(self) -> None:
        self.admitted: list[tuple[int, int, float]] = []

    def entries(self, subs, data_bytes):
        return 100 * subs + data_bytes

    def admit_one(self, entries_needed, data_bytes, arrival: float) -> float:
        self.admitted.append((entries_needed, data_bytes, arrival))
        return arrival + 1.0


def message(tag, issue_time, payload=64, kind=MessageKind.STORE, ranges=None):
    return WireMessage(
        src=0,
        dst=1,
        payload_bytes=payload,
        overhead_bytes=24,
        kind=kind,
        issue_time=issue_time,
        stores_packed=TAGS.index(tag),
        meta={"range1": (0, payload)} if ranges is None else {"ranges": ranges},
    )


def transmit(outputs, topology=None, tracer=None, depacketizers=()):
    topology = topology or RecordingTopology()
    system = MultiGPUSystem(
        n_gpus=2,
        protocol=PCIeProtocol(PCIE_GEN4),
        compute=ComputeModel(),
        topology=topology,
    )
    metrics = RunMetrics(workload="loop", paradigm="p2p", n_gpus=2)
    dropped: list[int] = []
    reasons: list[str] = []
    batches = [MessageBatch.from_messages(0, item) for item in outputs]
    latest = system._transmit_events(
        batches, list(depacketizers), metrics, tracer, None, dropped, reasons
    )
    return latest, topology, metrics, dropped, reasons


class TestEngine:
    def test_time_order(self):
        outputs = [[message("b", 5.0), message("a", 1.0), message("c", 9.0)]]
        _, topology, *_ = transmit(outputs)
        assert topology.routed == [("a", 1.0), ("b", 5.0), ("c", 9.0)]

    def test_ties_break_by_schedule_order(self):
        # Equal issue times keep emission order: phase order first,
        # then each phase's own order, also when a later phase's
        # message is earlier in time.
        outputs = [
            [message("first", 1.0), message("late", 3.0), message("second", 1.0)],
            [message("early", 0.5), message("third", 1.0)],
        ]
        _, topology, *_ = transmit(outputs)
        assert [tag for tag, _ in topology.routed] == [
            "early",
            "first",
            "second",
            "third",
            "late",
        ]

    def test_returns_the_latest_drain(self):
        # The big early message drains after the small late one.
        big = 64 * 1024
        outputs = [[message("big", 0.0, payload=big), message("small", 2.0)]]
        latest, _, metrics, *_ = transmit(outputs)
        assert LATENCY + big / _DRAIN_RATE > 2.0 + LATENCY + 64 / _DRAIN_RATE
        assert latest == LATENCY + big / _DRAIN_RATE
        assert metrics.packets.messages == 2

    def test_no_traffic(self):
        latest, topology, metrics, dropped, reasons = transmit([[], []])
        assert latest == float("-inf")
        assert topology.routed == []
        assert metrics.packets.messages == 0
        assert not dropped and not reasons

    def test_blocked_route_drops_and_continues(self):
        # Issued second, listed last: the drop names its row in the
        # batches' concatenation.
        lost = message("lost", 2.0, payload=4096)
        outputs = [[message("a", 1.0)], [message("b", 3.0), lost]]
        topology = RecordingTopology(blocked={"lost"})
        latest, _, metrics, dropped, reasons = transmit(outputs, topology)
        assert [tag for tag, _ in topology.routed] == ["a", "lost", "b"]
        assert dropped == [2]
        assert metrics.faults.dropped_messages == 1
        assert metrics.faults.dropped_bytes == 4096
        assert reasons == ["no live path gpu0->gpu1 at 2.0 ns (dead links: l0)"]
        # Only delivered messages count as packets and set the drain.
        assert metrics.packets.messages == 2
        assert latest == 3.0 + LATENCY + 64 / _DRAIN_RATE

    def test_finepack_drains_through_its_destination(self):
        # Three sub-transactions of 10, 20 and 34 B: the buffer entries
        # come from the range count and the payload.
        ranges = (np.array([0, 100, 200]), np.array([10, 20, 34]))
        depacketizers = [RecordingDepacketizer(), RecordingDepacketizer()]
        outputs = [[message("fp", 4.0, kind=MessageKind.FINEPACK, ranges=ranges)]]
        latest, *_ = transmit(outputs, depacketizers=depacketizers)
        assert depacketizers[0].admitted == []
        assert depacketizers[1].admitted == [(364, 64, 4.0 + LATENCY)]
        assert latest == 4.0 + LATENCY + 1.0

    @pytest.mark.parametrize("blocked", [(), ("b",)])
    def test_traced_lifecycle(self, blocked, monkeypatch):
        # In a traced run each message is stepped at its issue time,
        # then injected, then delivered and drained -- or dropped.
        tracer = Tracer(sample_every_ns=None)
        steps: list[float] = []
        feed = tracer.engine_step

        def spy(now_ns):
            steps.append(now_ns)
            feed(now_ns)

        monkeypatch.setattr(tracer, "engine_step", spy)
        if blocked:
            # A drop is legal only in a run that declared its fault.
            tracer.fault_injected("link_down", "l0", 0.0, float("inf"), links=("l0",))
        outputs = [[message("b", 2.0), message("a", 1.0)]]
        transmit(outputs, RecordingTopology(blocked), tracer=tracer)
        assert steps == [1.0, 2.0]
        b_end = (
            [(EventKind.MSG_DROPPED, 2.0)]
            if blocked
            else [
                (EventKind.MSG_DELIVERED, 2.0 + LATENCY),
                (EventKind.MSG_DRAINED, 2.0 + LATENCY + 64 / _DRAIN_RATE),
            ]
        )
        lifecycle = [e for e in tracer.events if e.track.startswith("flow")]
        assert [(e.kind, e.time_ns) for e in lifecycle] == [
            (EventKind.MSG_INJECTED, 1.0),
            (EventKind.MSG_DELIVERED, 1.0 + LATENCY),
            (EventKind.MSG_DRAINED, 1.0 + LATENCY + 64 / _DRAIN_RATE),
            (EventKind.MSG_INJECTED, 2.0),
            *b_end,
        ]
