"""Runtime invariant checking over the trace event stream.

The :class:`InvariantChecker` subscribes to a :class:`~repro.obs.tracer.
Tracer` (or replays a recorded stream offline) and asserts, on every
event, the conservation laws the simulator must obey:

1. **byte conservation** -- at every barrier, and at the end of the
   run, ``injected == delivered + in-flight + dropped`` holds with
   in-flight empty at barriers (the bulk-synchronous model drains all
   traffic before the next iteration starts);
2. **message lifecycle** -- every message is delivered exactly once,
   after it was injected, and drains only after delivery;
3. **link exclusivity** -- a link direction serializes one message at a
   time: transmissions on one link never overlap;
4. **non-negative credits** -- flow-control occupancy reported by links
   never goes negative;
5. **monotonic engine time** -- the DES event loop never steps
   backwards (fed directly by the loop, once per message it routes,
   not derived from events);
6. **empty remote write queues at barriers** -- the kernel-end release
   must have flushed every partition before an iteration closes;
7. **declared faults only** -- ``MSG_DROPPED`` is legal only in runs
   that declared injected faults up front (``FAULT_INJECTED`` events);
   byte conservation then holds modulo the declared drops.  A drop in a
   fault-free run is still a violation, and a ``LINK_STATE`` ``"up"``
   transition must close a matching ``"down"``.

A violation raises :class:`InvariantViolation` carrying the offending
event and a window of the most recent events for diagnosis.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .events import EventKind, TraceEvent

#: Slack for float comparisons on simulated-time arithmetic.
_EPS = 1e-6


class InvariantViolation(AssertionError):
    """A simulator conservation law was broken.

    Attributes
    ----------
    event:
        The event that exposed the violation (``None`` for end-of-run
        checks).
    window:
        The most recent events observed before the failure.
    """

    def __init__(
        self,
        message: str,
        event: TraceEvent | None = None,
        window: Iterable[TraceEvent] = (),
    ) -> None:
        self.event = event
        self.window = list(window)
        lines = [message]
        if self.window:
            lines.append("recent events:")
            for e in self.window:
                lines.append(
                    f"  {e.time_ns:14.1f} ns  {e.kind.value:<14} {e.track:<18} {e.attrs}"
                )
        super().__init__("\n".join(lines))


class InvariantChecker:
    """Checks stream invariants event by event.

    Use online by passing it to ``Tracer(checker=...)`` (the default
    tracer construction does this for you), or offline via
    :meth:`replay` on a recorded event list.
    """

    def __init__(self, window: int = 16) -> None:
        self._recent: deque[TraceEvent] = deque(maxlen=window)
        #: msg_id -> (inject_time, payload_bytes) for undelivered messages.
        self._inflight: dict[int, tuple[float, int]] = {}
        #: msg_id -> delivery_time for messages not yet drained.
        self._awaiting_drain: dict[int, float] = {}
        self._injected_bytes = 0
        self._delivered_bytes = 0
        self._dropped_bytes = 0
        #: last reported pending entry count per RWQ partition track.
        self._rwq_pending: dict[str, int] = {}
        self._link_busy_until: dict[str, float] = {}
        self._engine_last_ns = 0.0
        self._last_iteration = -1
        #: True once any FAULT_INJECTED event was seen: drops become
        #: legal (byte conservation modulo declared drops).
        self._faults_declared = False
        #: link tracks currently in the "down" state.
        self._links_down: set[str] = set()
        self.events_checked = 0
        self.barriers_checked = 0

    # -- failure helper ---------------------------------------------

    def _fail(self, message: str, event: TraceEvent | None = None) -> None:
        raise InvariantViolation(message, event=event, window=self._recent)

    # -- event-loop hook (not an event: called once per message) -----

    def engine_time(self, now_ns: float) -> None:
        if now_ns < self._engine_last_ns - _EPS:
            self._fail(
                f"engine time went backwards: {now_ns} ns after "
                f"{self._engine_last_ns} ns"
            )
        self._engine_last_ns = now_ns

    # -- event stream ------------------------------------------------

    def observe(self, event: TraceEvent) -> None:
        self._recent.append(event)
        self.events_checked += 1
        kind = event.kind
        if kind is EventKind.MSG_INJECTED:
            mid = event.attrs["msg_id"]
            if mid in self._inflight:
                self._fail(f"message {mid} injected twice", event)
            payload = event.attrs["payload_bytes"]
            self._inflight[mid] = (event.time_ns, payload)
            self._injected_bytes += payload
        elif kind is EventKind.MSG_DELIVERED:
            mid = event.attrs["msg_id"]
            entry = self._inflight.pop(mid, None)
            if entry is None:
                self._fail(
                    f"message {mid} delivered without injection (or twice)", event
                )
            inject_time, payload = entry
            if event.time_ns < inject_time - _EPS:
                self._fail(
                    f"message {mid} delivered at {event.time_ns} ns before its "
                    f"injection at {inject_time} ns",
                    event,
                )
            self._delivered_bytes += payload
            self._awaiting_drain[mid] = event.time_ns
        elif kind is EventKind.MSG_DRAINED:
            mid = event.attrs["msg_id"]
            delivered_at = self._awaiting_drain.pop(mid, None)
            if delivered_at is None:
                self._fail(f"message {mid} drained without delivery", event)
            if event.time_ns < delivered_at - _EPS:
                self._fail(
                    f"message {mid} drained at {event.time_ns} ns before its "
                    f"delivery at {delivered_at} ns",
                    event,
                )
        elif kind is EventKind.MSG_DROPPED:
            mid = event.attrs["msg_id"]
            if not self._faults_declared:
                self._fail(
                    f"message {mid} dropped in a run with no declared faults",
                    event,
                )
            entry = self._inflight.pop(mid, None)
            if entry is None:
                self._fail(f"message {mid} dropped without injection", event)
            self._dropped_bytes += entry[1]
        elif kind is EventKind.FAULT_INJECTED:
            self._faults_declared = True
        elif kind is EventKind.LINK_STATE:
            state = event.attrs["state"]
            if state == "down":
                self._links_down.add(event.track)
            elif state == "up":
                if event.track not in self._links_down:
                    self._fail(
                        f"link {event.track} reported 'up' without a "
                        f"preceding 'down'",
                        event,
                    )
                self._links_down.discard(event.track)
            else:
                self._fail(f"unknown link state {state!r}", event)
        elif kind is EventKind.LINK_TX:
            busy_until = self._link_busy_until.get(event.track, 0.0)
            if event.time_ns < busy_until - _EPS:
                self._fail(
                    f"link {event.track} started a transmission at "
                    f"{event.time_ns} ns while busy until {busy_until} ns",
                    event,
                )
            if event.dur_ns < 0:
                self._fail(f"negative serialization time on {event.track}", event)
            self._link_busy_until[event.track] = event.end_ns
            credit = event.attrs.get("credit_bytes")
            if credit is not None and credit < 0:
                self._fail(
                    f"negative flow-control occupancy {credit} B on {event.track}",
                    event,
                )
        elif kind in (EventKind.RWQ_ENQUEUE, EventKind.RWQ_FLUSH):
            pending = event.attrs["pending_entries"]
            if pending < 0:
                self._fail(f"negative RWQ occupancy on {event.track}", event)
            self._rwq_pending[event.track] = pending
        elif kind is EventKind.BARRIER:
            self.barriers_checked += 1
            self._check_conservation(event, at_barrier=True)
        elif kind is EventKind.ITERATION:
            index = event.attrs["index"]
            if index != self._last_iteration + 1:
                self._fail(
                    f"iteration {index} closed after iteration "
                    f"{self._last_iteration}",
                    event,
                )
            self._last_iteration = index

    def _check_conservation(self, event: TraceEvent | None, at_barrier: bool) -> None:
        where = (
            f"at barrier (iteration {event.attrs.get('iteration')})"
            if at_barrier and event is not None
            else "at end of run"
        )
        if self._inflight:
            sample = sorted(self._inflight)[:4]
            self._fail(
                f"{len(self._inflight)} message(s) still in flight {where} "
                f"(ids {sample}): injected {self._injected_bytes} B != "
                f"delivered {self._delivered_bytes} B + dropped "
                f"{self._dropped_bytes} B",
                event,
            )
        if self._injected_bytes != self._delivered_bytes + self._dropped_bytes:
            self._fail(
                f"byte conservation broken {where}: injected "
                f"{self._injected_bytes} B != delivered {self._delivered_bytes} B "
                f"+ dropped {self._dropped_bytes} B",
                event,
            )
        stuck = {t: n for t, n in self._rwq_pending.items() if n}
        if stuck:
            self._fail(
                f"remote write queue not empty {where}: {stuck}", event
            )

    def finish(self) -> None:
        """End-of-run checks (conservation plus drain completeness)."""
        if self._awaiting_drain:
            sample = sorted(self._awaiting_drain)[:4]
            self._fail(
                f"{len(self._awaiting_drain)} delivered message(s) never "
                f"drained (ids {sample})"
            )
        self._check_conservation(None, at_barrier=False)

    @classmethod
    def replay(cls, events: Iterable[TraceEvent], window: int = 16) -> "InvariantChecker":
        """Check a recorded stream offline; returns the finished checker."""
        checker = cls(window=window)
        for event in events:
            checker.observe(event)
        checker.finish()
        return checker
