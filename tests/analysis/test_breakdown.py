"""Breakdown analysis tests on a real (small) comparison."""

import pytest

from repro.analysis.breakdown import (
    breakdown_rows,
    data_reduction_factors,
    wasted_fraction,
)
from repro.run import RunSpec, labeled_sweep
from repro.workloads import PagerankWorkload


@pytest.fixture(scope="module")
def runs():
    """``{paradigm: RunMetrics}`` for one workload."""
    base = RunSpec.for_workload(
        PagerankWorkload(n=8_000, avg_degree=8), iterations=2
    )
    sweep = labeled_sweep(
        {
            p: base.with_options(paradigm=p)
            for p in ("p2p", "dma", "finepack", "infinite")
        }
    )
    return {p.label: p.metrics for p in sweep.result.points}


class TestBreakdown:
    def test_rows_exclude_infinite(self, runs):
        rows = breakdown_rows(runs)
        assert {r[1] for r in rows} == {"p2p", "dma", "finepack"}
        assert {r[0] for r in rows} == {"pagerank"}

    def test_rows_sum_consistent(self, runs):
        for row in breakdown_rows(runs):
            _, _, useful, overhead, wasted, total = row
            assert useful + overhead + wasted == pytest.approx(total)

    def test_finepack_reduces_data_vs_p2p(self, runs):
        factors = data_reduction_factors(runs)
        assert factors["p2p"] > 1.2

    def test_wasted_fraction_bounds(self, runs):
        for run in runs.values():
            assert 0.0 <= wasted_fraction(run) <= 1.0
