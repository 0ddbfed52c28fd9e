"""The structured event tracer.

One :class:`Tracer` observes one simulation run.  Call sites throughout
the simulator hold an optional tracer reference and guard every hook
with ``if tracer is not None`` -- a single pointer comparison -- so a
run without tracing pays essentially nothing.  With tracing on, the
tracer:

* records typed :class:`~repro.obs.events.TraceEvent` objects into an
  in-memory stream (exported later via :mod:`repro.obs.export`),
* maintains a :class:`~repro.obs.counters.CounterRegistry` of
  counters/gauges/histograms and snapshots it into ``COUNTER_SAMPLE``
  events on a configurable cadence of simulated time,
* forwards every event to subscribers -- by default an
  :class:`~repro.obs.invariants.InvariantChecker` that asserts
  conservation laws as the run progresses.

Emission methods are *typed* (``message_injected``, ``rwq_flush``,
``kernel`` ...) rather than free-form so event attributes stay
schema-stable across the codebase.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .counters import CounterRegistry
from .events import EventKind, TraceEvent
from .invariants import InvariantChecker

if TYPE_CHECKING:  # pragma: no cover
    from ..core.remote_write_queue import FlushedWindow
    from ..interconnect.message import WireMessage


class Tracer:
    """Collects one run's structured event stream.

    Parameters
    ----------
    sample_every_ns:
        Cadence (simulated ns) of counter-registry snapshots; ``None``
        disables sampling.
    check_invariants:
        Attach an online :class:`InvariantChecker` (the default).  The
        checker raises :class:`~repro.obs.invariants.InvariantViolation`
        the moment a conservation law breaks.
    """

    def __init__(
        self,
        sample_every_ns: float | None = 10_000.0,
        check_invariants: bool = True,
    ) -> None:
        if sample_every_ns is not None and sample_every_ns <= 0:
            raise ValueError(f"sample_every_ns must be positive: {sample_every_ns}")
        self.events: list[TraceEvent] = []
        self.counters = CounterRegistry()
        self.checker: InvariantChecker | None = (
            InvariantChecker() if check_invariants else None
        )
        self._subscribers: list[Callable[[TraceEvent], None]] = []
        if self.checker is not None:
            self._subscribers.append(self.checker.observe)
        self._sample_every = sample_every_ns
        self._next_sample = sample_every_ns if sample_every_ns is not None else None
        self._max_time_ns = 0.0
        self._msg_seq = 0
        self._rwq_pending: dict[str, int] = {}
        self._finished = False

    # -- plumbing ----------------------------------------------------

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        """Register a callback invoked on every emitted event."""
        self._subscribers.append(fn)

    def _emit(
        self,
        kind: EventKind,
        time_ns: float,
        track: str,
        name: str,
        dur_ns: float = 0.0,
        attrs: dict | None = None,
    ) -> TraceEvent:
        event = TraceEvent(
            kind=kind,
            time_ns=time_ns,
            track=track,
            name=name,
            dur_ns=dur_ns,
            attrs=attrs or {},
        )
        self.events.append(event)
        for fn in self._subscribers:
            fn(event)
        self._maybe_sample(max(time_ns, time_ns + dur_ns))
        return event

    def _maybe_sample(self, time_ns: float) -> None:
        if time_ns > self._max_time_ns:
            self._max_time_ns = time_ns
        if self._next_sample is None or self._max_time_ns < self._next_sample:
            return
        snap = self.counters.snapshot()
        # One sample per crossed cadence boundary would replay identical
        # values on big time jumps; a single sample at the crossing is
        # enough for a piecewise-constant counter track.
        event = TraceEvent(
            kind=EventKind.COUNTER_SAMPLE,
            time_ns=self._next_sample,
            track="counters",
            name="counters",
            attrs=snap,
        )
        self.events.append(event)
        for fn in self._subscribers:
            fn(event)
        assert self._sample_every is not None
        periods = int(self._max_time_ns // self._sample_every) + 1
        self._next_sample = periods * self._sample_every

    # -- message lifecycle ------------------------------------------

    def message_injected(self, msg: "WireMessage", time_ns: float) -> int:
        """Record a message entering the interconnect; returns its id."""
        mid = self._msg_seq
        self._msg_seq += 1
        c = self.counters
        c.counter("messages_injected").inc()
        c.counter("payload_bytes_injected").inc(msg.payload_bytes)
        c.counter("wire_bytes_injected").inc(msg.wire_bytes)
        c.gauge("payload_bytes_in_flight").add(msg.payload_bytes)
        c.histogram("packet_wire_bytes").observe(msg.wire_bytes)
        c.histogram("stores_per_packet").observe(msg.stores_packed)
        self._emit(
            EventKind.MSG_INJECTED,
            time_ns,
            f"flow gpu{msg.src}->gpu{msg.dst}",
            msg.kind.value,
            attrs={
                "msg_id": mid,
                "src": msg.src,
                "dst": msg.dst,
                "payload_bytes": msg.payload_bytes,
                "overhead_bytes": msg.overhead_bytes,
                "stores_packed": msg.stores_packed,
            },
        )
        return mid

    def message_delivered(self, msg_id: int, msg: "WireMessage", time_ns: float) -> None:
        c = self.counters
        c.counter("payload_bytes_delivered").inc(msg.payload_bytes)
        c.gauge("payload_bytes_in_flight").add(-msg.payload_bytes)
        self._emit(
            EventKind.MSG_DELIVERED,
            time_ns,
            f"flow gpu{msg.src}->gpu{msg.dst}",
            msg.kind.value,
            attrs={"msg_id": msg_id, "payload_bytes": msg.payload_bytes},
        )

    def message_drained(self, msg_id: int, msg: "WireMessage", time_ns: float) -> None:
        self._emit(
            EventKind.MSG_DRAINED,
            time_ns,
            f"flow gpu{msg.src}->gpu{msg.dst}",
            msg.kind.value,
            attrs={"msg_id": msg_id},
        )

    def message_dropped(self, msg_id: int, msg: "WireMessage", time_ns: float) -> None:
        self.counters.counter("payload_bytes_dropped").inc(msg.payload_bytes)
        self.counters.gauge("payload_bytes_in_flight").add(-msg.payload_bytes)
        self._emit(
            EventKind.MSG_DROPPED,
            time_ns,
            f"flow gpu{msg.src}->gpu{msg.dst}",
            msg.kind.value,
            attrs={"msg_id": msg_id, "payload_bytes": msg.payload_bytes},
        )

    # -- interconnect -----------------------------------------------

    def link_transmit(
        self,
        link_name: str,
        msg: "WireMessage",
        start_ns: float,
        end_ns: float,
        credit_bytes: int | None = None,
    ) -> None:
        """Record one serialization occupancy of one link direction."""
        self.counters.counter(f"link_wire_bytes:{link_name}").inc(msg.wire_bytes)
        attrs: dict = {
            "wire_bytes": msg.wire_bytes,
            "src": msg.src,
            "dst": msg.dst,
        }
        if credit_bytes is not None:
            attrs["credit_bytes"] = credit_bytes
        self._emit(
            EventKind.LINK_TX,
            start_ns,
            link_name,
            msg.kind.value,
            dur_ns=end_ns - start_ns,
            attrs=attrs,
        )

    # -- faults ------------------------------------------------------

    def fault_injected(
        self,
        fault_kind: str,
        link_pattern: str,
        start_ns: float,
        end_ns: float,
        links: tuple[str, ...] = (),
    ) -> None:
        """Declare one scheduled fault at arm time.

        Emitted once per :class:`~repro.faults.schedule.FaultEvent` when
        a :class:`~repro.faults.injector.FaultInjector` arms a topology.
        Declaring faults up front switches the invariant checker into
        fault-aware mode: ``MSG_DROPPED`` events become legal (byte
        conservation still holds modulo the declared drops).
        """
        self.counters.counter("faults_injected").inc()
        attrs: dict = {
            "fault": fault_kind,
            "link": link_pattern,
            "start_ns": start_ns,
        }
        # Permanent faults have an infinite window; JSON exporters choke
        # on Infinity, so only finite closings are recorded.
        if end_ns != float("inf"):
            attrs["end_ns"] = end_ns
        if links:
            attrs["links"] = list(links)
        self._emit(
            EventKind.FAULT_INJECTED,
            0.0,
            "faults",
            f"{fault_kind}:{link_pattern}",
            attrs=attrs,
        )

    def link_state_change(
        self,
        link_name: str,
        state: str,
        time_ns: float,
        until_ns: float | None = None,
    ) -> None:
        """Record a link-health transition (``"down"`` / ``"up"``)."""
        self.counters.counter(f"link_state:{state}").inc()
        attrs: dict = {"state": state}
        if until_ns is not None and until_ns != float("inf"):
            attrs["until_ns"] = until_ns
        self._emit(
            EventKind.LINK_STATE,
            time_ns,
            link_name,
            state,
            attrs=attrs,
        )

    # -- remote write queue -----------------------------------------

    def rwq_enqueue(
        self,
        gpu: int,
        dst: int,
        addr: int,
        size: int,
        time_ns: float,
        pending_entries: int,
    ) -> None:
        track = f"rwq gpu{gpu}->gpu{dst}"
        self._rwq_track(track, pending_entries)
        self.counters.counter("rwq_stores_enqueued").inc()
        self._emit(
            EventKind.RWQ_ENQUEUE,
            time_ns,
            track,
            "store",
            attrs={
                "addr": addr,
                "size": size,
                "pending_entries": pending_entries,
            },
        )

    def rwq_flush(
        self,
        gpu: int,
        dst: int,
        window: "FlushedWindow",
        data_bytes: int,
        time_ns: float,
        pending_entries: int,
    ) -> None:
        track = f"rwq gpu{gpu}->gpu{dst}"
        self._rwq_track(track, pending_entries)
        reason = window.reason.value
        self.counters.counter(f"rwq_flushes:{reason}").inc()
        self.counters.histogram("rwq_flush_data_bytes").observe(data_bytes)
        self._emit(
            EventKind.RWQ_FLUSH,
            time_ns,
            track,
            f"flush:{reason}",
            attrs={
                "reason": reason,
                "data_bytes": data_bytes,
                "stores_absorbed": window.stores_absorbed,
                "pending_entries": pending_entries,
            },
        )

    def _rwq_track(self, track: str, pending_entries: int) -> None:
        old = self._rwq_pending.get(track, 0)
        self._rwq_pending[track] = pending_entries
        self.counters.gauge("rwq_pending_entries").add(pending_entries - old)

    # -- execution structure ----------------------------------------

    def kernel(self, gpu: int, start_ns: float, end_ns: float, iteration: int) -> None:
        self._emit(
            EventKind.KERNEL,
            start_ns,
            f"gpu{gpu}",
            f"kernel it{iteration}",
            dur_ns=end_ns - start_ns,
            attrs={"gpu": gpu, "iteration": iteration},
        )

    def fence_release(self, gpu: int, time_ns: float) -> None:
        self._emit(
            EventKind.FENCE_RELEASE,
            time_ns,
            f"gpu{gpu}",
            "release",
            attrs={"gpu": gpu},
        )

    def barrier(self, iteration: int, start_ns: float, end_ns: float) -> None:
        self._emit(
            EventKind.BARRIER,
            start_ns,
            "system",
            f"barrier it{iteration}",
            dur_ns=end_ns - start_ns,
            attrs={"iteration": iteration},
        )

    def iteration(self, index: int, start_ns: float, end_ns: float) -> None:
        self._emit(
            EventKind.ITERATION,
            start_ns,
            "system",
            f"iteration {index}",
            dur_ns=end_ns - start_ns,
            attrs={"index": index},
        )

    # -- event-loop hook ---------------------------------------------

    def engine_step(self, now_ns: float) -> None:
        """Called by the DES event loop before each message it routes,
        at the message's issue time: invariant check only, no event."""
        if self.checker is not None:
            self.checker.engine_time(now_ns)

    # -- lifecycle ----------------------------------------------------

    def finish(self) -> None:
        """Close the run: final conservation checks, final sample."""
        if self._finished:
            return
        self._finished = True
        if self._next_sample is not None and self.events:
            self._next_sample = self._max_time_ns
            self._maybe_sample(self._max_time_ns)
        if self.checker is not None:
            self.checker.finish()

    def summary(self) -> dict:
        """Compact roll-up for reports and export metadata."""
        return {
            "events": len(self.events),
            "max_time_ns": self._max_time_ns,
            "counters": self.counters.snapshot(),
            "histograms": self.counters.histogram_summary(),
        }
