"""End-to-end resilience: retransmits, rerouting, graceful degradation."""

import pytest

from repro.faults import (
    DegradedRunError,
    FaultInjector,
    FaultSchedule,
    LinkDownError,
)
from repro.interconnect.link import MAX_REPLAYS, Link
from repro.interconnect.message import MessageKind, WireMessage
from repro.interconnect.flowcontrol import CreditPool
from repro.obs import Tracer
from repro.obs.events import EventKind
from repro.obs.invariants import InvariantChecker, InvariantViolation
from repro.sim.paradigms import make_paradigm
from repro.sim.system import MultiGPUSystem
from repro.workloads import JacobiWorkload


def _msg(payload=256) -> WireMessage:
    return WireMessage(
        src=0, dst=1, kind=MessageKind.STORE,
        payload_bytes=payload, overhead_bytes=24,
    )


def _schedule(*faults, **kw) -> FaultSchedule:
    return FaultSchedule.from_dict({"name": "t", "faults": list(faults), **kw})


def _run(schedule, paradigm="finepack", topology_kind="single_switch",
         n_gpus=2, iterations=2, with_credits=False, tracer=None):
    system = MultiGPUSystem.build(
        n_gpus=n_gpus,
        topology_kind=topology_kind,
        with_credits=with_credits,
        fault_injector=FaultInjector(schedule) if len(schedule) else None,
    )
    trace = JacobiWorkload().generate_trace(
        n_gpus=n_gpus, iterations=iterations, seed=7
    )
    return system.run(trace, make_paradigm(paradigm), tracer=tracer)


@pytest.fixture(scope="module")
def healthy_total() -> float:
    """Fault-free run time, for placing fault windows mid-run."""
    return _run(_schedule()).total_time_ns


class TestLinkFaults:
    def test_degrade_stretches_serialization(self):
        link = Link(name="l", bytes_per_ns=10.0)
        fs = FaultInjector(
            _schedule({"type": "link_degrade", "link": "l",
                       "start_ns": 0.0, "end_ns": 1e9, "factor": 0.5})
        ).compile_link_state("l")
        link.arm_faults(fs)
        start, delivery = link.transmit(_msg(), 0.0)
        # 280 wire bytes at 5 B/ns instead of 10 B/ns.
        assert delivery - start - link.propagation_ns == pytest.approx(56.0)

    def test_flap_retransmits_and_completes(self, healthy_total):
        tracer = Tracer()
        m = _run(_schedule(
            {"type": "link_flap", "link": "gpu0->sw0",
             "start_ns": healthy_total / 3, "end_ns": healthy_total * 2 / 3},
        ), tracer=tracer)
        assert m.faults.retransmits > 0
        assert m.faults.fault_stall_ns > 0
        assert not m.degraded
        assert m.total_time_ns > healthy_total
        # The outage window is announced as a link_state down event.
        assert EventKind.LINK_STATE in {e.kind for e in tracer.events}

    def test_crc_burst_replays(self):
        m = _run(_schedule(
            {"type": "crc_burst", "link": "gpu0->*",
             "start_ns": 0.0, "end_ns": 1e9, "error_rate": 1e-4},
        ))
        assert m.faults.replays > 0
        assert m.faults.replay_bytes > 0
        assert "replays" in m.summary()

    def test_replay_saturation_counted_and_warned(self):
        link = Link(name="l", bytes_per_ns=10.0, error_rate=0.5)
        link.transmit(_msg(4096), 0.0)
        assert link.stats.replay_saturations == 1
        assert link.stats.replays == MAX_REPLAYS

        from repro.analysis import format_link_stats_table
        from repro.sim.metrics import RunMetrics

        metrics = RunMetrics(workload="w", paradigm="p", n_gpus=2)
        metrics.link_stats["l"] = {
            "messages": 1, "wire_bytes": 4120, "busy_time_ns": 1.0,
            "utilization": 0.5, **link.stats.fault_summary(),
        }
        table = format_link_stats_table(metrics)
        assert "WARNING" in table and "lower bound" in table

    def test_oversized_transfer_streams_through_credits(self):
        pool = CreditPool(header_credits=4, data_credit_bytes=1024)
        link = Link(name="l", bytes_per_ns=10.0, credits=pool)
        # Twice the pool: admitted (streams), occupies it for the full
        # drain so a follow-up message stalls behind it.
        _, first_delivery = link.transmit(_msg(2048), 0.0)
        start2, _ = link.transmit(_msg(1024), first_delivery)
        assert start2 > first_delivery


class TestRerouting:
    def test_fail_with_alternate_path_reroutes(self, healthy_total):
        m = _run(
            _schedule(
                {"type": "link_fail", "link": "gpu0->gpu1",
                 "start_ns": healthy_total / 3},
            ),
            topology_kind="fully_connected",
            n_gpus=4,
        )
        assert m.faults.rerouted_messages > 0
        assert m.faults.dropped_messages == 0
        assert not m.degraded

    def test_mid_run_fail_on_reroutable_path_is_deterministic(self, healthy_total):
        sched = _schedule(
            {"type": "link_fail", "link": "gpu0->gpu1",
             "start_ns": healthy_total / 3},
        )
        runs = [
            _run(sched, topology_kind="fully_connected", n_gpus=4).summary()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestGracefulDegradation:
    def test_partition_raises_with_partial_metrics(self, healthy_total):
        with pytest.raises(DegradedRunError) as exc_info:
            _run(_schedule(
                {"type": "link_fail", "link": "gpu0->sw0",
                 "start_ns": healthy_total / 3},
            ))
        err = exc_info.value
        assert err.metrics is not None
        assert err.metrics.degraded
        assert err.metrics.faults.dropped_messages > 0
        assert err.metrics.faults.dropped_bytes > 0
        assert 0 < err.metrics.total_time_ns < healthy_total
        assert err.metrics.link_stats  # partial per-link stats survive
        assert err.reasons and "no live path" in err.reasons[0]

    def test_degraded_summary_flags(self, healthy_total):
        with pytest.raises(DegradedRunError) as exc_info:
            _run(_schedule(
                {"type": "link_fail", "link": "gpu0->sw0",
                 "start_ns": healthy_total / 3},
            ))
        summary = exc_info.value.metrics.summary()
        assert summary["degraded"] is True
        assert summary["dropped"] > 0

    def test_traced_degraded_run_passes_invariants(self, healthy_total):
        tracer = Tracer()  # check_invariants=True: raises on violation
        with pytest.raises(DegradedRunError):
            _run(
                _schedule(
                    {"type": "link_fail", "link": "gpu0->sw0",
                     "start_ns": healthy_total / 3},
                ),
                tracer=tracer,
            )
        kinds = {e.kind for e in tracer.events}
        assert EventKind.FAULT_INJECTED in kinds
        assert EventKind.MSG_DROPPED in kinds
        # The stream also replays clean offline.
        InvariantChecker.replay(tracer.events)

    def test_drop_without_declared_fault_is_violation(self):
        tracer = Tracer(check_invariants=False)
        mid = tracer.message_injected(_msg(), 0.0)
        tracer.message_dropped(mid, _msg(), 5.0)
        with pytest.raises(InvariantViolation, match="no declared faults"):
            InvariantChecker.replay(tracer.events)


class TestReceiverFaults:
    def test_drain_slowdown_backpressures_follow_up(self):
        def next_start(fault_state):
            pool = CreditPool(header_credits=4, data_credit_bytes=8192)
            pool.fault_state = fault_state
            pool.commit(0.0, 8192)  # buffer is now full until it drains
            return pool.earliest_start(0.0, 8192)

        inj = FaultInjector(_schedule(
            {"type": "drain_slowdown", "link": "l",
             "start_ns": 0.0, "end_ns": 1e6, "factor": 0.05},
        ))
        fast = next_start(None)
        slow = next_start(inj.compile_pool_state("l"))
        assert slow == pytest.approx(fast / 0.05)

    def test_credit_leak_defers_then_releases(self):
        pool = CreditPool(header_credits=4, data_credit_bytes=1024)
        inj = FaultInjector(_schedule(
            {"type": "credit_leak", "link": "l",
             "start_ns": 0.0, "end_ns": 500.0, "leak_bytes": 1024},
        ))
        pool.fault_state = inj.compile_pool_state("l")
        # The whole buffer is leaked until t=500: a transfer cannot
        # start before the leak closes.
        assert pool.earliest_start(0.0, 512) == pytest.approx(500.0)
        assert pool.earliest_start(600.0, 512) == pytest.approx(600.0)


class TestLinkDownEscalation:
    def test_transmit_raises_when_permanently_down(self):
        link = Link(name="gpu0->sw0", bytes_per_ns=32.0)
        link.arm_faults(
            FaultInjector(
                _schedule({"type": "link_fail", "link": "gpu0->sw0",
                           "start_ns": 100.0})
            ).compile_link_state("gpu0->sw0")
        )
        link.transmit(_msg(), 0.0)  # before the failure: fine
        with pytest.raises(LinkDownError):
            link.transmit(_msg(), 200.0)
