"""End-to-end integration: the paper's qualitative claims must hold on
the scaled-down suite."""

import pytest

from repro.analysis import geomean
from repro.run import RunSpec, labeled_sweep
from repro.workloads import (
    CTWorkload,
    JacobiWorkload,
    PagerankWorkload,
    SSSPWorkload,
)


def compare(workload, paradigms=("p2p", "dma", "finepack", "infinite")):
    """``{paradigm: SweepPoint}``: each paradigm's 4-GPU metrics and
    speedup over the single-GPU baseline."""
    base = RunSpec.for_workload(workload, iterations=2)
    sweep = labeled_sweep({p: base.with_options(paradigm=p) for p in paradigms})
    return sweep.result.by_label()


@pytest.fixture(scope="module")
def jacobi():
    return compare(JacobiWorkload(n=512))


@pytest.fixture(scope="module")
def pagerank():
    # Evaluation scale: the scaled-down variants are launch-overhead
    # dominated and compress the paradigm gaps.
    return compare(
        PagerankWorkload(), paradigms=("p2p", "dma", "finepack", "wc", "infinite")
    )


@pytest.fixture(scope="module")
def sssp():
    return compare(SSSPWorkload(n=16_000))


@pytest.fixture(scope="module")
def ct():
    return compare(CTWorkload())


class TestRegularApplications:
    def test_p2p_scales_well(self, jacobi):
        """Fig. 9: P2P stores achieve considerable speedups for the
        regular (full-cacheline-store) applications -- essentially the
        whole infinite-bandwidth opportunity."""
        assert jacobi["p2p"].speedup > 0.95 * jacobi["infinite"].speedup

    def test_finepack_matches_p2p(self, jacobi):
        assert jacobi["finepack"].speedup == pytest.approx(
            jacobi["p2p"].speedup, rel=0.05
        )

    def test_dma_below_store_paradigms(self, jacobi):
        assert jacobi["dma"].speedup < jacobi["p2p"].speedup


class TestIrregularApplications:
    def test_p2p_near_or_below_single_gpu(self, pagerank):
        """Fig. 9: raw P2P stores can be a net slowdown."""
        assert pagerank["p2p"].speedup < 1.2

    def test_finepack_recovers_scaling(self, pagerank):
        assert pagerank["finepack"].speedup > 1.5 * pagerank["p2p"].speedup

    def test_ordering_p2p_dma_finepack(self, sssp):
        sp = {label: p.speedup for label, p in sssp.items()}
        assert sp["p2p"] < sp["finepack"]
        assert sp["dma"] < sp["finepack"]

    def test_finepack_within_opportunity(self, pagerank):
        assert pagerank["finepack"].speedup <= pagerank["infinite"].speedup + 1e-9


class TestDataVolume:
    def test_finepack_moves_less_than_p2p(self, pagerank, sssp):
        for result in (pagerank, sssp):
            fp = result["finepack"].metrics.wire_bytes
            assert result["p2p"].metrics.wire_bytes > 1.5 * fp

    def test_finepack_beats_write_combining(self, pagerank):
        """Sec. VI-A: FinePack reduces wire data vs WC alone (~24%)."""
        fp = pagerank["finepack"].metrics.wire_bytes
        wc = pagerank["wc"].metrics.wire_bytes
        assert wc / fp > 1.1

    def test_p2p_overhead_share_is_large(self, sssp):
        b = sssp["p2p"].metrics.bytes
        assert b.overhead > b.useful  # tiny stores: headers dominate


class TestCTOutlier:
    def test_low_coalescing(self, ct):
        """Fig. 11: CT packs far fewer stores per packet."""
        assert ct["finepack"].metrics.packets.mean_stores_per_packet < 15

    def test_still_scales(self, ct):
        """Fig. 9: CT scales well anyway -- it is compute bound."""
        assert ct["finepack"].speedup > 2.5
        assert ct["dma"].speedup > 1.8

    def test_finepack_close_to_p2p(self, ct):
        """With no spatial locality FinePack cannot beat raw stores."""
        assert ct["finepack"].speedup == pytest.approx(ct["p2p"].speedup, rel=0.1)


class TestAggregate:
    def test_geomean_sanity(self, jacobi, pagerank, sssp, ct):
        results = [jacobi, pagerank, sssp, ct]
        fp = geomean([r["finepack"].speedup for r in results])
        inf = geomean([r["infinite"].speedup for r in results])
        assert 1.5 < fp <= inf
        # FinePack captures a large share of the opportunity (paper: 71%).
        assert fp / inf > 0.5
