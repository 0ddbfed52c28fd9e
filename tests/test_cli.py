"""CLI tests (``python -m repro``)."""

import io

import pytest

from repro.cli import main


def run_cli(*argv) -> str:
    out = io.StringIO()
    assert main(list(argv), out=out) == 0
    return out.getvalue()


class TestList:
    def test_lists_workloads_and_paradigms(self):
        text = run_cli("list")
        for name in ("jacobi", "pagerank", "sssp", "als", "ct", "eqwp", "diffusion", "hit"):
            assert name in text
        for paradigm in ("p2p", "dma", "finepack", "gps", "wc", "infinite"):
            assert paradigm in text


class TestLateRegistration:
    """Components registered after import are visible to every command."""

    @pytest.fixture
    def late_components(self):
        from repro import registry
        from repro.sim.paradigms import P2PStoreParadigm
        from repro.workloads import JacobiWorkload

        class LateJacobi(JacobiWorkload):
            name = "late_jacobi"

        class LateP2P(P2PStoreParadigm):
            name = "late_p2p"

        registry.workloads.add("late_jacobi", LateJacobi)
        registry.paradigms.add("late_p2p", LateP2P)
        try:
            yield
        finally:
            # Registries have no public removal; undo the additions so
            # other tests see the stock components only.
            del registry.workloads._entries["late_jacobi"]
            del registry.paradigms._entries["late_p2p"]

    def test_list_shows_late_components(self, late_components):
        text = run_cli("list")
        assert "late_jacobi" in text
        assert "late_p2p" in text

    def test_run_accepts_late_components(self, late_components):
        text = run_cli(
            "run", "late_jacobi", "late_p2p", "--gpus", "2", "--iterations", "1"
        )
        assert "late_jacobi / late_p2p" in text
        assert "total_time_ms" in text


class TestRun:
    def test_run_small(self):
        text = run_cli(
            "run", "jacobi", "finepack", "--gpus", "2", "--iterations", "1"
        )
        assert "jacobi / finepack" in text
        assert "total_time_ms" in text

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            run_cli("run", "nosuch", "finepack")

    def test_unknown_paradigm_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            run_cli("run", "jacobi", "warp-drive")


class TestCompare:
    def test_compare_table(self):
        text = run_cli(
            "compare", "diffusion", "--gpus", "2", "--iterations", "1",
            "--paradigms", "p2p", "finepack",
        )
        assert "speedup" in text
        assert "p2p" in text and "finepack" in text


class TestTraceReplay:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.npz"
        text = run_cli(
            "trace", "jacobi", str(path), "--gpus", "2", "--iterations", "1"
        )
        assert "remote stores" in text
        text = run_cli("replay", str(path), "finepack")
        assert "jacobi / finepack" in text

    def test_replay_respects_subheader_config(self, tmp_path):
        path = tmp_path / "trace.npz"
        run_cli("trace", "pagerank", str(path), "--gpus", "2", "--iterations", "1")
        a = run_cli("replay", str(path), "finepack", "--subheader-bytes", "2")
        b = run_cli("replay", str(path), "finepack", "--subheader-bytes", "5")
        assert a != b

    @pytest.fixture(scope="class")
    def jacobi_trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("replay") / "trace.npz"
        run_cli("trace", "jacobi", str(path), "--gpus", "2", "--iterations", "1")
        return str(path)

    def test_replay_honours_fidelity(self, jacobi_trace):
        text = run_cli("replay", jacobi_trace, "finepack", "--fidelity", "analytical")
        assert "analytical" in text

    def test_replay_honours_error_rate(self, jacobi_trace):
        text = run_cli("replay", jacobi_trace, "finepack", "--error-rate", "1e-3")
        assert "replays" in text

    def test_replay_takes_its_shape_from_the_trace(self, jacobi_trace):
        with pytest.raises(SystemExit):
            run_cli("replay", jacobi_trace, "finepack", "--gpus", "4")


class TestValidate:
    def test_battery_passes_under_fabric_flags(self):
        text = run_cli(
            "validate", "jacobi", "finepack", "--gpus", "2", "--iterations",
            "1", "--subheader-bytes", "2", "--gen", "6", "--error-rate", "1e-4",
        )
        assert "all checks passed" in text

    def test_rejects_analytical_fidelity(self):
        with pytest.raises(SystemExit, match="fidelity des"):
            run_cli("validate", "jacobi", "finepack", "--fidelity", "analytical")


class TestGoodput:
    def test_table(self):
        text = run_cli("goodput")
        assert "pcie" in text and "nvlink" in text
        assert "16384" in text


class TestTimelineFlag:
    def test_run_with_timeline(self):
        text = run_cli(
            "run", "diffusion", "finepack", "--gpus", "2", "--iterations", "1",
            "--timeline",
        )
        assert "iteration timeline" in text
        assert "egress link utilization" in text


class TestTraceOut:
    def test_run_emits_valid_chrome_trace(self, tmp_path):
        """The acceptance command: ``repro run --workload jacobi --gpus 4
        --trace-out FILE`` must emit valid traceEvents JSON."""
        from repro.obs import validate_chrome_trace_file

        path = tmp_path / "t.json"
        text = run_cli(
            "run", "--workload", "jacobi", "--gpus", "4", "--iterations", "1",
            "--trace-out", str(path),
        )
        assert "per-link timeline" in text
        assert f"wrote {path}" in text
        obj = validate_chrome_trace_file(str(path))
        assert obj["traceEvents"]
        assert obj["metadata"]["gpus"] == 4

    def test_run_positional_workload_with_trace_out(self, tmp_path):
        from repro.obs import validate_chrome_trace_file

        path = tmp_path / "t.json"
        run_cli(
            "run", "jacobi", "finepack", "--gpus", "2", "--iterations", "1",
            "--trace-out", str(path),
        )
        validate_chrome_trace_file(str(path))

    def test_run_jsonl_extension_switches_format(self, tmp_path):
        from repro.obs import InvariantChecker, read_jsonl

        path = tmp_path / "events.jsonl"
        run_cli(
            "run", "jacobi", "finepack", "--gpus", "2", "--iterations", "1",
            "--trace-out", str(path),
        )
        events = read_jsonl(str(path))
        assert events
        InvariantChecker.replay(events)  # recorded stream replays cleanly

    def test_run_requires_some_workload(self):
        with pytest.raises(SystemExit):
            run_cli("run")

    @pytest.mark.parametrize("command", ["run", "sweep", "chaos"])
    def test_empty_trace_out_rejected(self, command, capsys):
        # An empty path must not silently run untraced.
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--trace-out", "")
        assert exc.value.code == 2
        assert "--trace-out needs a file name" in capsys.readouterr().err

    def test_sweep_merges_points_into_one_trace(self, tmp_path):
        from repro.obs import validate_chrome_trace_file

        path = tmp_path / "sweep.json"
        text = run_cli(
            "sweep", "jacobi", "subheader", "--gpus", "2", "--iterations", "1",
            "--trace-out", str(path),
        )
        assert "sweep points" in text
        obj = validate_chrome_trace_file(str(path))
        assert {e["pid"] for e in obj["traceEvents"]} == {0, 1, 2, 3, 4}
        assert set(obj["metadata"]["runs"]) == {"2B", "3B", "4B", "5B", "6B"}


class TestSweep:
    def test_subheader_sweep(self):
        text = run_cli(
            "sweep", "diffusion", "subheader", "--gpus", "2", "--iterations", "1"
        )
        assert "subheader sweep" in text
        for label in ("2B", "4B", "6B"):
            assert label in text

    def test_generation_sweep(self):
        text = run_cli(
            "sweep", "diffusion", "generation", "--paradigm", "p2p",
            "--gpus", "2", "--iterations", "1",
        )
        for label in ("gen3", "gen6"):
            assert label in text

    def test_paradigm_sweep_reports_goodput(self):
        text = run_cli(
            "sweep", "allreduce_ring", "paradigm", "--gpus", "2",
            "--iterations", "1",
        )
        assert "goodput" in text
        for label in ("p2p", "dma", "finepack"):
            assert label in text

    def test_collectives_family_alias_expands(self):
        text = run_cli(
            "sweep", "collectives", "paradigm", "--gpus", "2",
            "--iterations", "1", "--paradigms", "finepack",
        )
        for name in (
            "allreduce_ring", "allreduce_tree", "allgather", "alltoall",
            "pipeline",
        ):
            assert f"{name}:finepack" in text

    def test_comma_separated_workloads(self):
        text = run_cli(
            "sweep", "alltoall,allgather", "paradigm", "--gpus", "2",
            "--iterations", "1", "--paradigms", "dma",
        )
        assert "alltoall:dma" in text and "allgather:dma" in text

    def test_sweep_on_fat_tree(self):
        text = run_cli(
            "sweep", "allgather", "paradigm", "--topology", "fat_tree",
            "--fanout", "2", "--gpus", "4", "--iterations", "1",
            "--paradigms", "finepack",
        )
        assert "finepack" in text


class TestCollectiveWorkloads:
    def test_list_includes_collectives_and_topologies(self):
        text = run_cli("list")
        for name in (
            "allreduce_ring", "allreduce_tree", "allgather", "alltoall",
            "pipeline",
        ):
            assert name in text
        for topo in ("fat_tree", "switched_mesh", "two_level"):
            assert topo in text

    def test_run_collective_on_switched_mesh(self):
        text = run_cli(
            "run", "alltoall", "finepack", "--gpus", "4", "--iterations", "1",
            "--topology", "switched_mesh", "--planes", "2",
        )
        assert "alltoall / finepack" in text

    def test_run_collective_on_fat_tree(self):
        text = run_cli(
            "run", "allreduce_tree", "dma", "--gpus", "8", "--iterations", "1",
            "--topology", "fat_tree",
        )
        assert "allreduce_tree / dma" in text


class TestDidYouMean:
    """Registry resolution errors must carry actionable suggestions."""

    def test_misspelled_collective_workload(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "allreduce_rng", "finepack")
        message = str(exc.value)
        assert "did you mean" in message
        assert "allreduce_ring" in message

    def test_misspelled_workload_alltoal(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "alltoal", "paradigm", "--gpus", "2")
        assert "alltoall" in str(exc.value)

    def test_misspelled_topology(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "run", "jacobi", "finepack", "--gpus", "2",
                "--topology", "fat_teee",
            )
        message = str(exc.value)
        assert "did you mean" in message
        assert "fat_tree" in message

    def test_misspelled_topology_switched_mess(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "sweep", "allgather", "paradigm", "--gpus", "2",
                "--topology", "switched_mess",
            )
        assert "switched_mesh" in str(exc.value)

    def test_unknown_topology_lists_known_kinds(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "run", "jacobi", "finepack", "--topology", "hypercube"
            )
        message = str(exc.value)
        assert "known" in message
        assert "fat_tree" in message and "switched_mesh" in message

    def test_topology_params_require_topology(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "jacobi", "finepack", "--fanout", "2")
        assert "--topology" in str(exc.value)
