"""Typed trace events: the vocabulary of the observability layer.

Every observable thing that happens during a simulation is one
:class:`TraceEvent`: a kind, a timestamp (ns of simulated time), an
optional duration (span events), the *track* it belongs to (a GPU, a
link, a src->dst flow -- the "thread" lane a viewer draws it on), and a
flat ``attrs`` dict of primitive values.  The schema is deliberately
small and closed: exporters and the invariant checker switch on
:class:`EventKind`, so adding a kind means deciding how it exports and
which invariants it participates in.

Event kinds and when they fire
------------------------------

========================  =====================================================
kind                      emitted when
========================  =====================================================
``MSG_INJECTED``          a wire message enters the interconnect at its source
``MSG_DELIVERED``         the message arrives at the destination endpoint
``MSG_DRAINED``           the payload has drained into destination memory
``MSG_DROPPED``           a message is discarded -- graceful degradation drops
                          messages whose destination became unreachable (see
                          :mod:`repro.faults`); only legal in runs that also
                          declared faults via ``FAULT_INJECTED``
``LINK_TX``               one serialization occupancy of one link direction
``FAULT_INJECTED``        a scheduled fault is armed on the fabric (one event
                          per :class:`~repro.faults.schedule.FaultEvent`, at
                          arm time, carrying the fault window in ``attrs``)
``LINK_STATE``            a link direction changes health state (``"down"`` at
                          an outage window opening, ``"up"`` at its close)
``RWQ_ENQUEUE``           a store is buffered in a remote-write-queue partition
``RWQ_FLUSH``             a partition hands a window to the packetizer (the
                          flush reason -- release, timeout, window miss,
                          payload full ... -- rides in ``attrs["reason"]``)
``KERNEL``                one GPU's kernel span for one iteration
``FENCE_RELEASE``         the kernel-end system-scoped release on one GPU
``BARRIER``               the inter-GPU barrier span closing an iteration
``ITERATION``             the whole-iteration span (compute + drain + barrier)
``COUNTER_SAMPLE``        a cadence sample of the counter registry
========================  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class EventKind(enum.Enum):
    """The closed set of event types the observability layer emits."""

    # Identity hashing, as for MessageKind: enum members are singletons
    # and these are hashed in per-event code.
    __hash__ = object.__hash__

    MSG_INJECTED = "msg_injected"
    MSG_DELIVERED = "msg_delivered"
    MSG_DRAINED = "msg_drained"
    MSG_DROPPED = "msg_dropped"
    LINK_TX = "link_tx"
    FAULT_INJECTED = "fault_injected"
    LINK_STATE = "link_state"
    RWQ_ENQUEUE = "rwq_enqueue"
    RWQ_FLUSH = "rwq_flush"
    KERNEL = "kernel"
    FENCE_RELEASE = "fence_release"
    BARRIER = "barrier"
    ITERATION = "iteration"
    COUNTER_SAMPLE = "counter_sample"


#: Kinds rendered as duration spans ("X" complete events in the Chrome
#: trace format); everything else is an instant or a counter sample.
SPAN_KINDS = frozenset(
    {
        EventKind.LINK_TX,
        EventKind.KERNEL,
        EventKind.BARRIER,
        EventKind.ITERATION,
    }
)


@dataclass(slots=True)
class TraceEvent:
    """One observable occurrence in a simulation.

    Attributes
    ----------
    kind:
        The event type; exporters and checkers dispatch on it.
    time_ns:
        Simulated start time in nanoseconds.
    track:
        The lane the event belongs to: ``"gpu2"``, ``"gpu0->sw0"``,
        ``"flow gpu1->gpu3"``, ``"system"`` ...  Exporters map tracks to
        viewer threads.
    name:
        Human-readable label shown by trace viewers.
    dur_ns:
        Span duration; 0 for instants.
    attrs:
        Flat primitive annotations (ints, floats, strings, bools).
    """

    kind: EventKind
    time_ns: float
    track: str
    name: str
    dur_ns: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def end_ns(self) -> float:
        return self.time_ns + self.dur_ns

    def to_jsonable(self) -> dict:
        """Compact dict for the JSONL exporter (stable key order)."""
        out = {
            "kind": self.kind.value,
            "time_ns": self.time_ns,
            "track": self.track,
            "name": self.name,
        }
        if self.dur_ns:
            out["dur_ns"] = self.dur_ns
        if self.attrs:
            out["attrs"] = self.attrs
        return out
