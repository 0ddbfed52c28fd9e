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

#: :meth:`Link.transmit_batch` times calls with fewer messages than
#: this with the per-message loop; below it numpy's per-call overhead
#: costs more than the array chain saves.
CHAIN_ARRAY_MIN = 256
#: Guess-and-verify rounds of the array chain before the rest of a
#: call falls back to the loop.
CHAIN_MAX_ROUNDS = 8
#: Busy periods at least this long accumulate as one slice each;
#: shorter ones as rows of zero-padded 2-D arrays, one per power-of-two
#: width.
_SLICE_PERIOD = 32


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

        ``ready`` must be in the order the event path would call
        :meth:`transmit` (global issue order).  Returns the delivery
        times, byte-identical to the scalar path, not merely close.
        The busy chain ``end_i = max(ready_i, end_{i-1}) + d_i`` is
        timed busy period by busy period (:func:`_chain_by_period`),
        whose additions are the scalar path's in the scalar order;
        calls shorter than :data:`CHAIN_ARRAY_MIN` run
        :func:`_chain_loop` on Python floats (:meth:`_transmit_short`).
        ``busy_time_ns`` is accumulated left to right, as the scalar
        path sums it.
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
        st = self.stats
        st.messages += int(ready.size)
        if ready.size < CHAIN_ARRAY_MIN:
            return self._transmit_short(ready, wire_bytes, payload, overhead)
        durations = wire_bytes / self.bytes_per_ns
        ends = _chain_by_period(ready, durations, self.busy_until)
        self.busy_until = float(ends[-1])
        st.busy_time_ns = float(
            np.add.accumulate(np.concatenate(([st.busy_time_ns], durations)))[-1]
        )
        st.payload_bytes += int(payload.sum())
        st.overhead_bytes += int(overhead.sum())
        return ends + self.propagation_ns

    def _transmit_short(
        self,
        ready: np.ndarray,
        wire_bytes: np.ndarray,
        payload: np.ndarray,
        overhead: np.ndarray,
    ) -> np.ndarray:
        """:meth:`transmit_batch` below :data:`CHAIN_ARRAY_MIN` in plain
        Python: numpy's fixed cost per operation dominates calls this
        short.  Every float operation is the array path's, in its order."""
        bytes_per_ns = float(self.bytes_per_ns)
        durations = [w / bytes_per_ns for w in wire_bytes.tolist()]
        ends = _chain_loop(ready.tolist(), durations, self.busy_until)
        if ends:
            self.busy_until = ends[-1]
        st = self.stats
        busy_time = st.busy_time_ns
        for d in durations:
            busy_time += d
        st.busy_time_ns = busy_time
        st.payload_bytes += sum(payload.tolist())
        st.overhead_bytes += sum(overhead.tolist())
        return np.array(ends, dtype=np.float64) + self.propagation_ns

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


def _chain_loop(
    ready: list[float], durations: list[float], busy: float
) -> list[float]:
    """The busy chain one message at a time, as :meth:`Link.transmit`
    computes it, on a link busy until ``busy``: every message's end."""
    ends = []
    for r, d in zip(ready, durations):
        busy = (r if r > busy else busy) + d
        ends.append(busy)
    return ends


def _chain_by_period(
    ready: np.ndarray, durations: np.ndarray, busy: float
) -> np.ndarray:
    """The busy chain's ends, bit for bit with :func:`_chain_loop`.

    Inside a busy period every end is the previous end plus the next
    duration, so ``np.add.accumulate`` from the period's start performs
    the loop's additions in the loop's order.  Where the periods start
    is guessed from the recurrence's max-plus closed form: with prefix
    sums ``P``, ``end_i = P_i + max(busy, max_{j<=i} ready_j - P_{j-1})``.
    Float rounding can misplace a start near a tie, so a result is
    accepted only as far as one elementwise pass of the recurrence
    reproduces it; that verified prefix is exact by induction.  The
    rest is retried with the starts its computed ends imply, and after
    :data:`CHAIN_MAX_ROUNDS` rounds handed to the loop.
    """
    n = ready.size
    prefix = np.cumsum(durations)
    guess = ready - prefix
    guess += durations
    guess[0] = max(guess[0], busy)
    np.maximum.accumulate(guess, out=guess)
    guess += prefix
    new = np.empty(n, dtype=bool)
    np.greater(ready[1:], guess[:-1], out=new[1:])
    ends = np.empty_like(durations)
    lo = 0
    for _ in range(CHAIN_MAX_ROUNDS):
        new[lo] = True
        _accumulate_periods(ready[lo:], durations[lo:], busy, new[lo:], ends[lo:])
        lo += _verified(ready[lo:], durations[lo:], busy, ends[lo:])
        if lo == n:
            return ends
        busy = float(ends[lo - 1])
        np.greater(ready[lo + 1 :], ends[lo:-1], out=new[lo + 1 :])
    ends[lo:] = _chain_loop(ready[lo:].tolist(), durations[lo:].tolist(), busy)
    return ends


def _accumulate_periods(
    ready: np.ndarray,
    durations: np.ndarray,
    busy: float,
    new: np.ndarray,
    out: np.ndarray,
) -> None:
    """Ends of the chain if each ``new`` message opens a busy period at
    its ready time, written into ``out``.  ``new[0]`` must be set; the
    first message starts when both it and the link are ready."""
    n = ready.size
    heads = np.flatnonzero(new)
    # Each period's first end, then its durations: the loop's operands.
    out[:] = durations
    out[0] += ready[0] if ready[0] > busy else busy
    out[heads[1:]] += ready[heads[1:]]
    if heads.size == n:
        return
    lengths = np.diff(heads, append=n)
    multi = lengths > 1
    heads, lengths = heads[multi], lengths[multi]
    long = lengths >= _SLICE_PERIOD
    for a, m in zip(heads[long].tolist(), lengths[long].tolist()):
        np.add.accumulate(out[a : a + m], out=out[a : a + m])
    heads, lengths = heads[~long], lengths[~long]
    while heads.size:
        width = 1 << (int(lengths.min()) - 1).bit_length()
        fits = lengths <= width
        cols = np.arange(width)
        idx = heads[fits, None] + cols
        valid = cols < lengths[fits, None]
        pos = idx[valid]
        padded = np.zeros(idx.shape)
        padded[valid] = out[pos]
        out[pos] = np.add.accumulate(padded, axis=1)[valid]
        heads, lengths = heads[~fits], lengths[~fits]


def _verified(
    ready: np.ndarray, durations: np.ndarray, busy: float, ends: np.ndarray
) -> int:
    """Length of the prefix of ``ends`` that one elementwise pass of the
    loop's recurrence reproduces bit for bit."""
    prev = np.empty_like(ends)
    prev[0] = busy
    prev[1:] = ends[:-1]
    step = np.where(ready > prev, ready, prev)
    step += durations
    wrong = step.view(np.int64) != ends.view(np.int64)
    k = int(wrong.argmax())
    return k if wrong[k] else ends.size
