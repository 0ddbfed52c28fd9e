"""Executor: parallel == serial, order preservation, sweep folding."""

import pytest

from repro.core.config import FinePackConfig
from repro.run import (
    RunContext,
    RunSpec,
    execute_grid,
    labeled_sweep,
)

JACOBI = RunSpec(workload="jacobi", workload_params={"n": 64}, n_gpus=2,
                 iterations=1)
DIFFUSION = RunSpec(workload="diffusion", workload_params={"n": 48},
                    n_gpus=2, iterations=1)

#: Two workloads x two paradigms -- the satellite's required shape.
GRID = [
    JACOBI.with_options(paradigm="p2p"),
    JACOBI.with_options(paradigm="finepack"),
    DIFFUSION.with_options(paradigm="p2p"),
    DIFFUSION.with_options(paradigm="finepack"),
]


class TestParallelEqualsSerial:
    def test_grid_metrics_identical(self):
        serial = execute_grid(GRID, jobs=1)
        parallel = execute_grid(GRID, jobs=4)
        assert [o.metrics for o in serial] == [o.metrics for o in parallel]
        assert [o.spec for o in serial] == GRID  # order preserved

    def test_sweep_tables_identical_including_best(self):
        labeled = {
            f"{spec.workload}/{spec.paradigm}": spec for spec in GRID
        }
        serial = labeled_sweep(labeled, jobs=1)
        parallel = labeled_sweep(labeled, jobs=4)
        assert serial.result.points == parallel.result.points
        assert serial.baseline.metrics == parallel.baseline.metrics
        assert serial.result.best() == parallel.result.best()

    def test_collective_with_topology_params_identical(self):
        """The process pool carries topology parameters to its workers:
        a ring all-reduce on a 2-plane switched mesh beside the GRID."""
        collective = RunSpec(
            workload="allreduce_ring",
            workload_params={"message_bytes": 8192, "chunk_bytes": 2048},
            topology="switched_mesh",
            topology_params={"planes": 2},
            n_gpus=4,
            iterations=1,
        )
        grid = GRID[:2] + [
            collective.with_options(paradigm=p) for p in ("dma", "finepack")
        ]
        serial = execute_grid(grid, jobs=1)
        parallel = execute_grid(grid, jobs=2)
        assert [o.metrics for o in serial] == [o.metrics for o in parallel]
        assert [o.spec for o in parallel] == grid

    def test_best_tie_break_stable_across_jobs(self):
        """Two labels, one spec -> equal speedups; best() must pick the
        lexicographically-smaller label in serial and parallel alike."""
        labeled = {"zz": JACOBI, "aa": JACOBI}
        serial = labeled_sweep(labeled, jobs=1)
        parallel = labeled_sweep(labeled, jobs=2)
        assert serial.result.best().label == "aa"
        assert parallel.result.best().label == "aa"

    def test_chaos_sweep_identical(self):
        from repro.faults import chaos_sweep, load_scenario

        schedule = load_scenario("flaky-retimer")
        kwargs = dict(intensities=(0.0, 1.0), paradigms=("p2p", "finepack"))
        serial = chaos_sweep(JACOBI, schedule, **kwargs)
        parallel = chaos_sweep(JACOBI, schedule, jobs=3, **kwargs)
        assert serial.points == parallel.points


class TestExecutorContract:
    def test_results_align_with_input_order(self):
        outcomes = execute_grid(GRID, jobs=2)
        assert [o.spec for o in outcomes] == GRID

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            execute_grid(GRID, jobs=0)

    def test_tracer_factory_requires_serial(self):
        with pytest.raises(ValueError, match="jobs=1"):
            execute_grid(GRID, jobs=2, tracer_factory=lambda label: None)

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="labels"):
            execute_grid(GRID, jobs=1, labels=["just-one"])

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="empty sweep"):
            labeled_sweep({})

    def test_degraded_runs_reported_as_data(self):
        from repro.faults import load_scenario

        schedule = load_scenario("partition")
        spec = JACOBI.with_options(
            workload_params={},  # default-size run: long enough to hit the cut
            scenario=schedule.to_json(indent=None),
            intensity=1.0,
            topology=schedule.topology or "single_switch",
            with_credits=schedule.with_credits,
        )
        (outcome,) = execute_grid([spec], jobs=1)
        assert outcome.degraded
        assert outcome.reasons


class TestCacheIntegration:
    def test_parallel_grid_shares_disk_cache(self, tmp_path):
        execute_grid(GRID, jobs=4, trace_cache=tmp_path)
        # 2 workloads -> at most 2 distinct trace entries, never 4
        entries = list(tmp_path.glob("trace-*/header.json"))
        assert 1 <= len(entries) <= 2

    def test_warm_cache_skips_all_generation(self, tmp_path):
        """The observable proof: a warm cache turns every lookup into a
        hit (zero misses = zero trace generations)."""
        from repro.run import aggregate_cache_stats

        execute_grid(GRID, jobs=1, trace_cache=tmp_path)
        warm = execute_grid(GRID, jobs=1, trace_cache=tmp_path)
        stats = aggregate_cache_stats(warm)
        assert stats["misses"] == 0
        assert stats["hits"] == len(GRID)

    def test_outcomes_carry_cache_deltas(self):
        outcomes = execute_grid(GRID[:2], jobs=1)
        assert outcomes[0].cache_stats["misses"] == 1  # generated
        assert outcomes[1].cache_stats["hits"] == 1    # reused in memory


class TestRunContextOverrides:
    def test_explicit_trace_wins(self):
        from repro.workloads import JacobiWorkload

        w = JacobiWorkload(n=64)
        trace = w.generate_trace(n_gpus=2, iterations=1, seed=7)
        ctx = RunContext(JACOBI, trace=trace)
        assert ctx.trace is trace
        assert ctx.run().total_time_ns > 0

    def test_spec_alone_owns_paradigm_and_finepack_config(self):
        """No override can make a run disagree with its spec: the
        paradigm comes from the spec, and the system carries no FinePack
        config of its own (its de-packetizers take the paradigm's)."""
        import inspect

        from repro.sim.system import MultiGPUSystem

        assert "paradigm" not in inspect.signature(RunContext).parameters
        build = inspect.signature(MultiGPUSystem.build)
        assert "finepack_config" not in build.parameters
        spec = JACOBI.with_options(finepack=FinePackConfig(subheader_bytes=3))
        ctx = RunContext(spec)
        assert ctx.paradigm.config == spec.finepack
        assert ctx.execute().metrics.paradigm == spec.paradigm
