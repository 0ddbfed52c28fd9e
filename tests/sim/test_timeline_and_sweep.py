"""Timeline rendering, link utilization, and sweep utility tests."""

import pytest

from repro.core.config import FinePackConfig
from repro.interconnect.pcie import PCIE_GEN4, PCIE_GEN6
from repro.run import (
    RunContext,
    RunSpec,
    SweepPoint,
    SweepResult,
    labeled_sweep,
)
from repro.sim.metrics import LinkUtilization, RunMetrics
from repro.sim.timeline import render_comparison, render_timeline
from repro.workloads import PagerankWorkload


@pytest.fixture(scope="module")
def workload():
    return PagerankWorkload(n=12_000)


@pytest.fixture(scope="module")
def base(workload):
    return RunSpec.for_workload(workload, iterations=2)


def _run(base, paradigm):
    return RunContext(base.with_options(paradigm=paradigm)).run()


@pytest.fixture(scope="module")
def metrics(base):
    return _run(base, "p2p")


class TestLinkUtilization:
    def test_populated_after_run(self, metrics):
        assert metrics.links.by_link
        assert 0.0 < metrics.links.peak <= 1.0
        assert 0.0 < metrics.links.mean <= metrics.links.peak

    def test_gpu_egress_subset(self, metrics):
        egress = metrics.links.gpu_egress()
        assert egress
        assert all(name.startswith("gpu") for name in egress)

    def test_empty_default(self):
        assert LinkUtilization().peak == 0.0
        assert LinkUtilization().mean == 0.0

    def test_comm_bound_paradigm_busier(self, base):
        p2p = _run(base, "p2p")
        fp = _run(base, "finepack")
        assert p2p.links.peak > fp.links.peak


class TestTimeline:
    def test_render_contains_iterations(self, metrics):
        text = render_timeline(metrics)
        assert "it 0" in text and "it 1" in text
        assert "egress link utilization" in text

    def test_render_empty_run(self):
        m = RunMetrics(workload="x", paradigm="y", n_gpus=2)
        assert "(no iterations)" in render_timeline(m)

    def test_render_comparison_bars(self, base):
        runs = {p: _run(base, p) for p in ("p2p", "finepack")}
        text = render_comparison(runs)
        assert "p2p" in text and "finepack" in text
        assert "ms" in text


class TestSweep:
    def test_subheader_sweep(self, base):
        result = labeled_sweep(
            {
                f"{b}B": base.with_options(
                    finepack=FinePackConfig(subheader_bytes=b)
                )
                for b in (2, 4, 5)
            }
        ).result
        assert {p.label for p in result.points} == {"2B", "4B", "5B"}
        assert all(p.speedup > 0 for p in result.points)
        # best() selects the maximum-speedup point.  (At this reduced
        # scale the physics of the sweet spot is exercised by the
        # integration suite and Fig. 12 bench, not here.)
        assert result.best().speedup == max(p.speedup for p in result.points)

    def test_generation_sweep(self, base):
        result = labeled_sweep(
            {
                label: base.with_options(paradigm="p2p", generation=gen)
                for label, gen in (("gen4", PCIE_GEN4), ("gen6", PCIE_GEN6))
            }
        ).result
        by = result.by_label()
        assert by["gen6"].speedup >= by["gen4"].speedup

    def test_empty_sweep_best_raises(self):
        with pytest.raises(ValueError):
            SweepResult(workload="x").best()

    def test_best_breaks_ties_by_label(self):
        """Exact speedup ties must resolve deterministically by label,
        not by the insertion order of the labeled specs."""

        def point(label, speedup):
            return SweepPoint(
                label=label,
                metrics=RunMetrics(workload="x", paradigm="y", n_gpus=2),
                speedup=speedup,
            )

        # Adversarial insertion order: the tied winners arrive with the
        # lexicographically larger label first.
        result = SweepResult(
            workload="x",
            points=[point("zeta", 2.0), point("alpha", 2.0), point("mid", 1.5)],
        )
        assert result.best().label == "alpha"
        reversed_result = SweepResult(
            workload="x", points=list(reversed(result.points))
        )
        assert reversed_result.best().label == "alpha"

    def test_best_prefers_higher_speedup_over_label(self):
        result = SweepResult(
            workload="x",
            points=[
                SweepPoint(
                    label="aaa",
                    metrics=RunMetrics(workload="x", paradigm="y", n_gpus=2),
                    speedup=1.0,
                ),
                SweepPoint(
                    label="zzz",
                    metrics=RunMetrics(workload="x", paradigm="y", n_gpus=2),
                    speedup=3.0,
                ),
            ],
        )
        assert result.best().label == "zzz"
