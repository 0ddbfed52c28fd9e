"""Point-to-point link with serialization timing and byte accounting.

A :class:`Link` models one direction of a full-duplex interconnect lane
bundle: packets serialize one at a time at the link's byte rate, and the
link keeps cumulative per-category byte counters that the metrics layer
reads after a run.

Links optionally carry a :class:`~repro.faults.state.LinkFaultState`
(armed by a :class:`~repro.faults.injector.FaultInjector`): scheduled
bandwidth degradation, outage windows and CRC bursts then shape every
transmission, with retransmit/stall costs accounted in
:class:`LinkStats`.  A link with no fault state pays a single ``None``
check.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..faults.state import LinkFaultState
from .flowcontrol import CreditPool
from .message import WireMessage

#: DLL replay cap: a packet corrupted this many times in a row stops
#: being retried (the real DLL would retrain the link instead).  Hitting
#: the cap is counted in ``LinkStats.replay_saturations``.
MAX_REPLAYS = 8


@dataclass
class LinkStats:
    """Cumulative traffic counters for one link direction."""

    messages: int = 0
    payload_bytes: int = 0
    overhead_bytes: int = 0
    busy_time_ns: float = 0.0
    #: DLL replays triggered by injected CRC errors, and the wire bytes
    #: the retransmissions consumed (not counted in ``wire_bytes``).
    replays: int = 0
    replay_bytes: int = 0
    #: Times a packet hit the ``MAX_REPLAYS`` replay cap while still
    #: corrupt -- nonzero means the configured error rate is beyond what
    #: the DLL replay model can faithfully express.
    replay_saturations: int = 0
    #: End-to-end timeout-driven retransmissions: packets that hit a
    #: scheduled outage window and were resent after backoff.
    retransmits: int = 0
    #: Simulated time lost to outage windows: backoff waits plus the
    #: partial serialization of packets killed mid-flight.
    fault_stall_ns: float = 0.0

    @property
    def wire_bytes(self) -> int:
        return self.payload_bytes + self.overhead_bytes

    @property
    def goodput(self) -> float:
        return self.payload_bytes / self.wire_bytes if self.wire_bytes else 0.0

    def record(self, msg: WireMessage, duration_ns: float) -> None:
        self.messages += 1
        self.payload_bytes += msg.payload_bytes
        self.overhead_bytes += msg.overhead_bytes
        self.busy_time_ns += duration_ns

    def fault_summary(self) -> dict[str, float]:
        """The fault/replay counters, for reports and metrics roll-up."""
        return {
            "replays": self.replays,
            "replay_bytes": self.replay_bytes,
            "replay_saturations": self.replay_saturations,
            "retransmits": self.retransmits,
            "fault_stall_ns": self.fault_stall_ns,
        }


@dataclass
class Link:
    """One direction of a link: serializes messages at a fixed byte rate.

    Parameters
    ----------
    name:
        Identifier for debugging/reporting (e.g. ``"gpu0->switch"``).
    bytes_per_ns:
        Serialization bandwidth (1 byte/ns == 1 GB/s).
    propagation_ns:
        Wire/retimer latency added to every message's delivery time.
    credits:
        Optional receiver credit pool; when present, messages stall
        until the receiver has buffer space.
    """

    name: str
    bytes_per_ns: float
    propagation_ns: float = 50.0
    credits: CreditPool | None = None
    #: Probability that any single wire byte of a packet is corrupted,
    #: triggering a data-link-layer replay of the whole packet.  Zero
    #: (default) disables error injection.  The per-link RNG is seeded
    #: from the link name so runs stay deterministic.
    error_rate: float = 0.0
    busy_until: float = 0.0
    stats: LinkStats = field(default_factory=LinkStats)
    #: Optional :class:`repro.obs.Tracer`; when set, every transmission
    #: emits a per-link serialization span (plus flow-control occupancy
    #: for credited links).  Set via :meth:`Topology.set_tracer`.
    tracer: object | None = field(default=None, repr=False, compare=False)
    #: Scheduled faults shaping this link (armed by a FaultInjector).
    fault_state: LinkFaultState | None = field(
        default=None, repr=False, compare=False
    )
    _rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.bytes_per_ns <= 0:
            raise ValueError(f"link bandwidth must be positive: {self.bytes_per_ns}")
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1): {self.error_rate}")
        self._seed_rng()

    def _seed_rng(self) -> None:
        """(Re)seed the replay RNG from the link name, deterministically.

        An RNG exists whenever replays are possible: a base error rate,
        or armed CRC-burst windows.
        """
        if self.error_rate or (
            self.fault_state is not None and self.fault_state.has_crc()
        ):
            self._rng = np.random.default_rng(zlib.crc32(self.name.encode()))
        else:
            self._rng = None

    def arm_faults(self, state: LinkFaultState | None) -> None:
        """Attach (or clear, with ``None``) scheduled faults."""
        self.fault_state = state
        self._seed_rng()

    def serialization_ns(self, msg: WireMessage) -> float:
        return msg.wire_bytes / self.bytes_per_ns

    def _replay_duration(
        self, msg: WireMessage, duration: float, rate: float
    ) -> float:
        """Duration including DLL replays of corrupted packets.

        Each corrupted packet is retransmitted in full (PCIe DLL
        replay); repeated corruption is possible but bounded by
        ``MAX_REPLAYS``.
        """
        p_corrupt = 1.0 - (1.0 - rate) ** msg.wire_bytes
        replays = 0
        while self._rng.random() < p_corrupt:
            replays += 1
            if replays >= MAX_REPLAYS:
                self.stats.replay_saturations += 1
                break
        if replays:
            self.stats.replays += replays
            self.stats.replay_bytes += replays * msg.wire_bytes
            duration *= 1 + replays
        return duration

    def _faulted_serialization(
        self, msg: WireMessage, start: float
    ) -> tuple[float, float]:
        """(start, duration) under scheduled faults.

        Waits out outage windows via the retransmit/backoff model,
        applies the bandwidth degradation and CRC burst active at the
        transmission start (piecewise-constant per packet), and restarts
        packets killed by an outage opening mid-serialization.  Raises
        :class:`~repro.faults.state.LinkDownError` when the link cannot
        carry the message at all.
        """
        fs = self.fault_state
        assert fs is not None
        while True:
            start = fs.admit(start, self)
            rate = self.bytes_per_ns * fs.bandwidth_factor(start)
            duration = msg.wire_bytes / rate
            err = self.error_rate + fs.error_rate_extra(start)
            if err > 0.0 and self._rng is not None:
                duration = self._replay_duration(msg, duration, min(err, 0.999999))
            cut = fs.cut_after(start, start + duration)
            if cut is None:
                return start, duration
            # The outage killed this packet mid-serialization: the time
            # already spent is wasted, and the sender retransmits.
            self.stats.retransmits += 1
            self.stats.fault_stall_ns += cut.start_ns - start
            start = cut.start_ns

    def transmit(self, msg: WireMessage, ready_time: float) -> tuple[float, float]:
        """Serialize ``msg``; returns (start_time, delivery_time).

        ``ready_time`` is when the message is available at the egress
        port.  Transmission starts at the later of readiness, link
        availability, and (with flow control) credit availability; it
        completes a serialization delay plus propagation later.  Calls
        must be made in non-decreasing ``ready_time`` order per link,
        which the event-driven system guarantees.

        Raises
        ------
        LinkDownError
            When armed faults leave the link unable to carry the
            message (permanent failure, or retries exhausted); the
            topology layer reroutes or drops.
        """
        start = max(ready_time, self.busy_until)
        if self.credits is not None:
            # Transfers larger than the whole receiver buffer (bulk DMA
            # copies) stream through it: admission waits for a full
            # buffer's worth of space, while the commit below charges
            # the true byte count so the drain occupies the pool for
            # the right duration.
            need = min(msg.payload_bytes, self.credits.data_credit_bytes)
            start = max(start, self.credits.earliest_start(start, need))
        if self.fault_state is None:
            duration = self.serialization_ns(msg)
            if self._rng is not None:
                duration = self._replay_duration(msg, duration, self.error_rate)
        else:
            start, duration = self._faulted_serialization(msg, start)
        end = start + duration
        self.busy_until = end
        delivery = end + self.propagation_ns
        if self.credits is not None:
            self.credits.commit(delivery, msg.payload_bytes)
        self.stats.record(msg, duration)
        if self.tracer is not None:
            credit_bytes = None
            if self.credits is not None:
                credit_bytes = self.credits.occupancy(start)[1]
            self.tracer.link_transmit(
                self.name, msg, start, end, credit_bytes=credit_bytes
            )
        return start, delivery

    def transmit_batch(
        self,
        ready: np.ndarray,
        wire_bytes: np.ndarray,
        payload: np.ndarray,
        overhead: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`transmit` for the fault-free, uncredited case.

        ``ready`` must be in the order the event engine would call
        :meth:`transmit` (global issue order).  Returns the delivery
        times.  The busy-time chain is a sequential Python loop over
        unboxed floats -- the identical additions in the identical
        order as the scalar path -- so timings are byte-identical, not
        merely close; only the stats summation and the final
        propagation add are vectorized (both order-insensitive or
        elementwise).
        """
        if (
            self.credits is not None
            or self.fault_state is not None
            or self._rng is not None
            or self.tracer is not None
        ):
            raise RuntimeError(
                f"link {self.name} is stateful (credits/faults/replay/tracer); "
                "batch transmission would not be byte-identical"
            )
        durations = wire_bytes / self.bytes_per_ns
        ends = np.empty_like(durations)
        busy = self.busy_until
        busy_time = self.stats.busy_time_ns
        i = 0
        for r, d in zip(ready.tolist(), durations.tolist()):
            start = r if r > busy else busy
            busy = start + d
            ends[i] = busy
            busy_time += d
            i += 1
        self.busy_until = busy
        st = self.stats
        st.busy_time_ns = busy_time
        st.messages += int(ready.size)
        st.payload_bytes += int(payload.sum())
        st.overhead_bytes += int(overhead.sum())
        return ends + self.propagation_ns

    def reset(self) -> None:
        """Clear timing state and counters (between runs).

        Armed faults persist across resets -- they are part of the
        scenario, not of one run -- but their per-run bookkeeping and
        the replay RNG are restored to their pristine state so repeated
        runs are byte-identical.
        """
        self.busy_until = 0.0
        self.stats = LinkStats()
        if self.credits is not None:
            self.credits.reset()
        if self.fault_state is not None:
            self.fault_state.reset()
        self._seed_rng()
