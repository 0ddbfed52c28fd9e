"""Determinism: identical fault runs byte-for-byte, in- and cross-process."""

import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import DegradedRunError, FaultInjector, FaultSchedule
from repro.faults.scenarios import load_scenario
from repro.sim.paradigms import make_paradigm
from repro.sim.system import MultiGPUSystem
from repro.workloads import JacobiWorkload

SCENARIO = {
    "name": "det",
    "faults": [
        {"type": "link_flap", "link": "gpu0->sw0",
         "start_ns": 50_000.0, "end_ns": 90_000.0},
        {"type": "crc_burst", "link": "*",
         "start_ns": 0.0, "end_ns": 1e9, "error_rate": 5e-5},
    ],
}


def _fingerprint(n_gpus=2, iterations=2, scenario=SCENARIO, runs=1):
    """Summary + raw per-link stats after the last of ``runs`` runs."""
    system = MultiGPUSystem.build(
        n_gpus=n_gpus,
        topology_kind="single_switch",
        fault_injector=FaultInjector(FaultSchedule.from_dict(scenario)),
    )
    trace = JacobiWorkload().generate_trace(
        n_gpus=n_gpus, iterations=iterations, seed=11
    )
    paradigm = make_paradigm("finepack")
    for _ in range(runs):
        metrics = system.run(trace, paradigm)
    raw = {
        f"{a}->{b}": repr(stats)
        for (a, b), stats in system.topology.all_stats().items()
    }
    return {"summary": metrics.summary(), "links": raw}


class TestInProcess:
    def test_rerun_after_reset_is_byte_identical(self):
        assert _fingerprint(runs=1) == _fingerprint(runs=3)

    def test_fresh_system_is_byte_identical(self):
        assert _fingerprint() == _fingerprint()

    def test_shipped_scenarios_are_reproducible(self):
        for name in ("flaky-retimer", "lane-retraining"):
            sched = load_scenario(name)
            first = _fingerprint(scenario=sched.to_dict())
            again = _fingerprint(scenario=sched.to_dict())
            assert first == again, name


class TestCrossProcess:
    def test_link_stats_identical_across_processes(self, tmp_path):
        script = textwrap.dedent(
            """
            import json, sys
            sys.path.insert(0, {src!r})
            from tests.faults.test_determinism import _fingerprint
            print(json.dumps(_fingerprint(), sort_keys=True))
            """
        ).format(src=os.path.join(os.path.dirname(__file__), "..", ".."))
        env = dict(os.environ)
        repo = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo, "src"), repo, env.get("PYTHONPATH", "")]
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env, cwd=repo,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]) == json.loads(
            json.dumps(_fingerprint(), sort_keys=True)
        )


_LINKS = st.sampled_from(["*", "gpu0->*", "*->gpu1", "gpu0->sw0", "sw0->gpu1"])
_START = st.floats(min_value=0.0, max_value=200_000.0, allow_nan=False)
_DURATION = st.floats(min_value=1.0, max_value=100_000.0, allow_nan=False)


@st.composite
def _fault(draw):
    kind = draw(st.sampled_from(
        ["link_degrade", "link_flap", "link_fail", "crc_burst",
         "drain_slowdown", "credit_leak"]
    ))
    start = draw(_START)
    f = {"type": kind, "link": draw(_LINKS), "start_ns": start}
    if kind != "link_fail":
        f["end_ns"] = start + draw(_DURATION)
    if kind == "link_degrade":
        f["factor"] = draw(st.floats(min_value=0.05, max_value=1.0))
    elif kind == "crc_burst":
        f["error_rate"] = draw(st.floats(min_value=0.0, max_value=1e-4))
    elif kind == "drain_slowdown":
        f["factor"] = draw(st.floats(min_value=0.05, max_value=1.0))
    elif kind == "credit_leak":
        f["leak_bytes"] = draw(st.integers(min_value=0, max_value=4096))
    return f


class TestScheduleProperty:
    @settings(max_examples=25, deadline=None)
    @given(faults=st.lists(_fault(), max_size=4))
    def test_any_valid_schedule_terminates(self, faults):
        """Every parseable schedule either completes or degrades cleanly."""
        schedule = FaultSchedule.from_dict({"name": "prop", "faults": faults})
        system = MultiGPUSystem.build(
            n_gpus=2,
            topology_kind="single_switch",
            with_credits=True,
            fault_injector=FaultInjector(schedule),
        )
        trace = JacobiWorkload().generate_trace(n_gpus=2, iterations=1, seed=3)
        try:
            metrics = system.run(trace, make_paradigm("finepack"))
        except DegradedRunError as err:
            metrics = err.metrics
            assert metrics.degraded
            assert metrics.faults.dropped_messages > 0
        assert metrics.total_time_ns > 0
