"""Chaos sweeps: the library API and the ``repro chaos`` CLI."""

import io
import json

import pytest

from repro.faults import FaultSchedule, chaos_sweep, format_chaos_table
from repro.faults.scenarios import SCENARIOS, list_scenarios, load_scenario
from repro.run import RunSpec
from repro.workloads import JacobiWorkload
from tests.test_cli import run_cli

BASE = RunSpec.for_workload(JacobiWorkload(), n_gpus=2, iterations=1)


@pytest.fixture(scope="module")
def sweep():
    return chaos_sweep(
        BASE,
        load_scenario("flaky-retimer"),
        intensities=(0.0, 1.0),
        paradigms=("p2p", "finepack"),
    )


class TestScenarios:
    def test_all_presets_parse(self):
        for name in list_scenarios():
            sched = load_scenario(name)
            assert sched.name == name
            assert len(sched) > 0

    def test_load_by_path(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(load_scenario("lane-retraining").to_json())
        assert load_scenario(str(path)) == load_scenario("lane-retraining")

    def test_unknown_scenario(self):
        with pytest.raises(Exception, match="nope"):
            load_scenario("nope")


class TestChaosSweep:
    def test_grid_of_points(self, sweep):
        assert len(sweep.points) == 4
        assert {(p.intensity, p.paradigm) for p in sweep.points} == {
            (0.0, "p2p"), (0.0, "finepack"), (1.0, "p2p"), (1.0, "finepack"),
        }

    def test_zero_intensity_is_clean_baseline(self, sweep):
        for paradigm in ("p2p", "finepack"):
            base = sweep.baseline(paradigm)
            assert base is not None
            assert not base.degraded
            assert not base.metrics.faults.any
            assert sweep.slowdown(base) == pytest.approx(1.0)

    def test_full_intensity_shows_fault_activity(self, sweep):
        # At this tiny config the stalls hide behind compute, so assert
        # the fault accounting rather than a wall-clock slowdown.
        for p in sweep.points:
            if p.intensity == 1.0:
                assert p.metrics.faults.retransmits > 0
                assert p.metrics.faults.fault_stall_ns > 0
                assert sweep.slowdown(p) >= 1.0

    def test_as_dict_and_json(self, sweep):
        obj = sweep.as_dict()
        assert obj["scenario"] == "flaky-retimer"
        assert obj["workload"] == "jacobi"
        assert all("slowdown" in p for p in obj["points"])
        buf = io.StringIO()
        sweep.write_json(buf)
        assert json.loads(buf.getvalue()) == json.loads(json.dumps(obj))

    def test_table(self, sweep):
        table = format_chaos_table(sweep)
        for col in ("intensity", "status", "slowdown", "rtx"):
            assert col in table
        assert "flaky-retimer" in table

    def test_degraded_points_are_rows_not_crashes(self):
        result = chaos_sweep(
            BASE,
            load_scenario("partition"),
            intensities=(0.0, 1.0),
            paradigms=("finepack",),
        )
        broken = [p for p in result.points if p.degraded]
        assert len(broken) == 1
        assert broken[0].intensity == 1.0
        assert broken[0].reasons and "no live path" in broken[0].reasons[0]
        assert "DEGRADED" in format_chaos_table(result)


class TestChaosCli:
    def test_list_scenarios(self):
        text = run_cli("chaos", "--list")
        for name in SCENARIOS:
            assert name in text

    def test_workload_required_without_list(self):
        with pytest.raises(SystemExit, match="name a workload"):
            run_cli("chaos")

    def test_sweep_table(self):
        text = run_cli(
            "chaos", "jacobi", "--scenario", "flaky-retimer",
            "--gpus", "2", "--iterations", "1",
            "--intensities", "0", "1", "--paradigms", "p2p", "finepack",
        )
        assert "chaos: jacobi under 'flaky-retimer'" in text
        assert "1.00x" in text  # the fault-free baselines

    def test_partition_reports_degraded(self):
        text = run_cli(
            "chaos", "jacobi", "--scenario", "partition",
            "--gpus", "2", "--iterations", "1", "--intensities", "0", "1",
            "--paradigms", "finepack",
        )
        assert "DEGRADED" in text
        assert "no live path" in text

    def test_json_export(self, tmp_path):
        path = tmp_path / "chaos.json"
        run_cli(
            "chaos", "jacobi", "--scenario", "flaky-retimer",
            "--gpus", "2", "--iterations", "1", "--intensities", "0", "1",
            "--paradigms", "finepack", "--json", str(path),
        )
        obj = json.loads(path.read_text())
        assert obj["scenario"] == "flaky-retimer"
        assert len(obj["points"]) == 2

    def test_traced_sweep_writes_valid_chrome_trace(self, tmp_path):
        from repro.obs.export import validate_chrome_trace_file

        path = tmp_path / "chaos-trace.json"
        text = run_cli(
            "chaos", "jacobi", "--scenario", "flaky-retimer",
            "--gpus", "2", "--iterations", "1", "--intensities", "0", "1",
            "--paradigms", "finepack", "--trace-out", str(path),
        )
        assert "chaos points" in text
        validate_chrome_trace_file(str(path))
