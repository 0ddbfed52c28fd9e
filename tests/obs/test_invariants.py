"""Invariant-checker tests.

Two halves: hand-built event streams exercising every violation class,
and whole-simulation property coverage -- the checker must stay silent
on every workload under every paradigm, and must catch a deliberately
corrupted stream.
"""

import pytest

from repro.obs import EventKind, InvariantChecker, InvariantViolation, TraceEvent, Tracer
from repro.run import RunContext, RunSpec
from repro.sim.paradigms import PARADIGMS
from repro.workloads import small_suite


def ev(kind, time_ns, track="t", name="x", dur_ns=0.0, **attrs):
    return TraceEvent(
        kind=kind, time_ns=time_ns, track=track, name=name, dur_ns=dur_ns, attrs=attrs
    )


def inject(mid, t=0.0, payload=64):
    return ev(
        EventKind.MSG_INJECTED, t, track="flow", msg_id=mid, payload_bytes=payload
    )


def deliver(mid, t=1.0, payload=64):
    return ev(
        EventKind.MSG_DELIVERED, t, track="flow", msg_id=mid, payload_bytes=payload
    )


def drain(mid, t=2.0):
    return ev(EventKind.MSG_DRAINED, t, track="flow", msg_id=mid)


class TestMessageLifecycle:
    def test_clean_lifecycle_passes(self):
        checker = InvariantChecker.replay([inject(0), deliver(0), drain(0)])
        assert checker.events_checked == 3

    def test_double_injection(self):
        with pytest.raises(InvariantViolation, match="injected twice"):
            InvariantChecker.replay([inject(0), inject(0)])

    def test_delivery_without_injection(self):
        with pytest.raises(InvariantViolation, match="without injection"):
            InvariantChecker.replay([deliver(7)])

    def test_delivery_before_injection_time(self):
        with pytest.raises(InvariantViolation, match="before its"):
            InvariantChecker.replay([inject(0, t=10.0), deliver(0, t=5.0)])

    def test_drain_without_delivery(self):
        with pytest.raises(InvariantViolation, match="drained without delivery"):
            InvariantChecker.replay([inject(0), drain(0)])

    def test_undrained_message_caught_at_finish(self):
        with pytest.raises(InvariantViolation, match="never\\s+drained"):
            InvariantChecker.replay([inject(0), deliver(0)])

    def test_dropped_messages_conserve(self):
        # Drops only conserve bytes legally in runs that declared faults
        # (tests/faults/test_resilience.py covers the illegal case).
        events = [
            ev(EventKind.FAULT_INJECTED, 0.0, track="faults",
               fault="link_fail", link="*"),
            inject(0),
            ev(EventKind.MSG_DROPPED, 1.0, track="flow", msg_id=0, payload_bytes=64),
        ]
        checker = InvariantChecker.replay(events)
        assert checker.events_checked == 3


class TestConservationAtBarriers:
    def test_inflight_at_barrier(self):
        events = [inject(0), ev(EventKind.BARRIER, 5.0, track="system", iteration=0)]
        with pytest.raises(InvariantViolation, match="in flight at barrier"):
            InvariantChecker.replay(events)

    def test_rwq_not_empty_at_barrier(self):
        events = [
            ev(
                EventKind.RWQ_ENQUEUE,
                1.0,
                track="rwq gpu0->gpu1",
                addr=0,
                size=4,
                pending_entries=2,
            ),
            ev(EventKind.BARRIER, 5.0, track="system", iteration=0),
        ]
        with pytest.raises(InvariantViolation, match="write queue not empty"):
            InvariantChecker.replay(events)

    def test_negative_rwq_occupancy(self):
        event = ev(
            EventKind.RWQ_ENQUEUE,
            1.0,
            track="rwq gpu0->gpu1",
            addr=0,
            size=4,
            pending_entries=-1,
        )
        with pytest.raises(InvariantViolation, match="negative RWQ"):
            InvariantChecker.replay([event])


class TestLinksAndTime:
    def test_overlapping_transmissions(self):
        events = [
            ev(EventKind.LINK_TX, 0.0, track="gpu0->sw0", dur_ns=10.0, wire_bytes=64),
            ev(EventKind.LINK_TX, 5.0, track="gpu0->sw0", dur_ns=10.0, wire_bytes=64),
        ]
        with pytest.raises(InvariantViolation, match="while busy"):
            InvariantChecker.replay(events)

    def test_distinct_links_may_overlap(self):
        events = [
            ev(EventKind.LINK_TX, 0.0, track="gpu0->sw0", dur_ns=10.0, wire_bytes=64),
            ev(EventKind.LINK_TX, 5.0, track="gpu1->sw0", dur_ns=10.0, wire_bytes=64),
        ]
        InvariantChecker.replay(events)

    def test_negative_credit_occupancy(self):
        event = ev(
            EventKind.LINK_TX,
            0.0,
            track="gpu0->sw0",
            dur_ns=1.0,
            wire_bytes=64,
            credit_bytes=-8,
        )
        with pytest.raises(InvariantViolation, match="negative flow-control"):
            InvariantChecker.replay([event])

    def test_engine_time_must_be_monotonic(self):
        checker = InvariantChecker()
        checker.engine_time(10.0)
        with pytest.raises(InvariantViolation, match="backwards"):
            checker.engine_time(9.0)

    def test_iterations_must_close_in_order(self):
        events = [
            ev(EventKind.ITERATION, 0.0, track="system", dur_ns=1.0, index=0),
            ev(EventKind.ITERATION, 1.0, track="system", dur_ns=1.0, index=2),
        ]
        with pytest.raises(InvariantViolation, match="iteration 2 closed"):
            InvariantChecker.replay(events)

    def test_violation_carries_event_window(self):
        try:
            InvariantChecker.replay([inject(0), deliver(9)])
        except InvariantViolation as exc:
            assert exc.event is not None
            assert len(exc.window) == 2
            assert "recent events" in str(exc)
        else:
            pytest.fail("expected a violation")


SMALL = {w.name: w for w in small_suite()}


@pytest.mark.parametrize("n_gpus", [2, 4])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_workload_passes_under_every_paradigm(name, n_gpus):
    """The property the whole layer exists to defend: real simulations
    never violate an invariant, for any workload x paradigm x scale."""
    workload = SMALL[name]
    base = RunSpec.for_workload(workload, n_gpus=n_gpus, iterations=2)
    trace = workload.generate_trace(n_gpus=n_gpus, iterations=2, seed=7)
    for paradigm in sorted(PARADIGMS):
        tracer = Tracer()  # online InvariantChecker attached by default
        spec = base.with_options(paradigm=paradigm)
        RunContext(spec, trace=trace, tracer=tracer).run()
        assert tracer.checker is not None
        assert tracer.checker.events_checked == len(tracer.events)
        assert tracer.checker.barriers_checked == 2, paradigm


def test_corrupted_stream_is_caught():
    """Dropping one delivery event from a real recorded stream must
    break conservation at the next barrier."""
    tracer = Tracer()
    spec = RunSpec.for_workload(SMALL["jacobi"], n_gpus=2, iterations=1)
    RunContext(spec, tracer=tracer).run()
    victim = next(e for e in tracer.events if e.kind is EventKind.MSG_DELIVERED)
    corrupted = [e for e in tracer.events if e is not victim]
    with pytest.raises(InvariantViolation):
        InvariantChecker.replay(corrupted)
