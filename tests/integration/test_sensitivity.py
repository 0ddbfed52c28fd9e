"""Sensitivity studies must reproduce the paper's directional claims."""

import pytest

from repro.core.config import FinePackConfig
from repro.interconnect.pcie import PCIE_GEN4, PCIE_GEN6
from repro.run import RunContext, RunSpec
from repro.sim.paradigms import FinePackParadigm
from repro.sim.system import MultiGPUSystem
from repro.workloads import PagerankWorkload, SSSPWorkload


@pytest.fixture(scope="module")
def pagerank_trace():
    # Evaluation scale: the sweep's sweet spot only emerges when the
    # aggregation window actually limits packing.
    return PagerankWorkload().generate_trace(n_gpus=4, iterations=2, seed=7)


class TestSubheaderSweep:
    """Figure 12: performance peaks at 4-5 sub-header bytes."""

    @pytest.fixture(scope="class")
    def sweep(self, pagerank_trace):
        times = {}
        for b in (2, 3, 4, 5, 6):
            system = MultiGPUSystem.build(
                n_gpus=4, finepack_config=FinePackConfig(subheader_bytes=b)
            )
            paradigm = FinePackParadigm(FinePackConfig(subheader_bytes=b))
            times[b] = system.run(pagerank_trace, paradigm).total_time_ns
        return times

    def test_tiny_window_is_worst(self, sweep):
        """2-byte headers give a 64 B window: constant thrash."""
        assert sweep[2] == max(sweep.values())

    def test_sweet_spot_at_4_or_5(self, sweep):
        best = min(sweep, key=sweep.get)
        assert best in (4, 5)

    def test_4_and_5_nearly_equal(self, sweep):
        """Fig. 12: 'virtually no change at 5 bytes'."""
        assert abs(sweep[4] - sweep[5]) / sweep[5] < 0.10


class TestBandwidthSweep:
    """Figure 13: more bandwidth helps, but baselines never catch
    FinePack at any step."""

    def test_gen6_faster_than_gen4_for_comm_bound(self):
        spec = RunSpec.for_workload(SSSPWorkload(n=16_000), "p2p", iterations=2)
        t4 = RunContext(spec.with_options(generation=PCIE_GEN4)).run()
        t6 = RunContext(spec.with_options(generation=PCIE_GEN6)).run()
        assert t6.total_time_ns < t4.total_time_ns

    def test_finepack_not_behind_at_gen6(self):
        """At Gen6 both may become compute-bound; FinePack must still
        move far fewer bytes and not lose time beyond the flush tail."""
        w = SSSPWorkload(n=16_000)
        spec = RunSpec.for_workload(w, generation=PCIE_GEN6, iterations=2)
        trace = w.generate_trace(4, 2, spec.seed)
        p2p = RunContext(spec.with_options(paradigm="p2p"), trace=trace).run()
        fp = RunContext(spec, trace=trace).run()
        assert fp.total_time_ns <= p2p.total_time_ns * 1.02
        assert fp.wire_bytes < p2p.wire_bytes


class TestScaling16GPU:
    """Sec. VI-B: FinePack keeps its advantage at 16 GPUs on PCIe 6."""

    def test_16_gpu_ordering(self):
        w = PagerankWorkload(n=64_000, band_fraction=0.12)
        spec = RunSpec.for_workload(
            w, n_gpus=16, generation=PCIE_GEN6, iterations=2, topology="two_level"
        )
        trace = w.generate_trace(16, 2, spec.seed)
        p2p = RunContext(spec.with_options(paradigm="p2p"), trace=trace).run()
        fp = RunContext(spec, trace=trace).run()
        # At this (scaled-down) size Gen6 makes the run compute-bound;
        # FinePack must still slash wire traffic and at worst pay the
        # release-flush tail.
        assert fp.total_time_ns <= p2p.total_time_ns * 1.05
        assert fp.wire_bytes < 0.6 * p2p.wire_bytes
