"""Run-layer tests on a scaled-down workload: the paradigm comparison
(a labeled sweep), single in-process runs, and the geomean aggregate."""

import pytest

from repro.analysis import bytes_normalized_to, geomean
from repro.run import RunContext, RunSpec, labeled_sweep
from repro.workloads import JacobiWorkload

BASE = RunSpec.for_workload(JacobiWorkload(n=256), iterations=2)


@pytest.fixture(scope="module")
def comparison():
    """``{paradigm: SweepPoint}`` over the Figure 9 paradigms."""
    labeled = {
        p: BASE.with_options(paradigm=p)
        for p in ("p2p", "dma", "finepack", "infinite")
    }
    return labeled_sweep(labeled).result.by_label()


@pytest.fixture(scope="module")
def runs(comparison):
    return {label: point.metrics for label, point in comparison.items()}


class TestCompareParadigms:
    def test_all_paradigms_present(self, comparison):
        assert set(comparison) == {"p2p", "dma", "finepack", "infinite"}

    def test_speedups_positive(self, comparison):
        assert all(p.speedup > 0 for p in comparison.values())

    def test_infinite_is_upper_bound(self, comparison):
        sp = {label: p.speedup for label, p in comparison.items()}
        assert sp["infinite"] >= max(sp["p2p"], sp["dma"], sp["finepack"]) - 1e-9

    def test_bytes_normalized_reference_is_one(self, runs):
        norm = bytes_normalized_to(runs, "dma")
        assert norm["dma"]["total"] == pytest.approx(1.0)

    def test_bytes_categories_sum(self, runs):
        norm = bytes_normalized_to(runs, "dma")
        for row in norm.values():
            assert row["useful"] + row["protocol_overhead"] + row["wasted"] == pytest.approx(
                row["total"]
            )

    def test_normalize_to_empty_reference_rejected(self, runs):
        with pytest.raises(ValueError):
            bytes_normalized_to(runs, "infinite")


class TestRunWorkload:
    def test_explicit_trace_reuse(self):
        w = JacobiWorkload(n=256)
        trace = w.generate_trace(n_gpus=4, iterations=2, seed=BASE.seed)
        a = RunContext(BASE, trace=trace).run()
        b = RunContext(BASE, trace=trace).run()
        assert a.total_time_ns == b.total_time_ns
        assert a.wire_bytes == b.wire_bytes


class TestGeomean:
    def test_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
