"""Trace container tests."""

import numpy as np
import pytest

from repro.gpu.compute import KernelWork
from repro.trace.intervals import IntervalSet
from repro.trace.stream import (
    DMATransfer,
    IterationTrace,
    KernelPhase,
    RemoteStoreBatch,
    WorkloadTrace,
)


def batch(addrs, sizes, dsts):
    return RemoteStoreBatch(
        np.asarray(addrs, np.int64),
        np.asarray(sizes, np.int64),
        np.asarray(dsts, np.int64),
    )


def phase(gpu, stores=None):
    return KernelPhase(
        gpu=gpu,
        work=KernelWork(flops=1.0, dram_bytes=1.0),
        stores=stores or RemoteStoreBatch.empty(),
    )


class TestRemoteStoreBatch:
    def test_counts_and_bytes(self):
        b = batch([0, 8], [8, 16], [1, 2])
        assert b.count == 2
        assert b.total_bytes == 24

    def test_mismatched_arrays(self):
        with pytest.raises(ValueError):
            batch([0], [8, 8], [1, 1])

    def test_non_positive_size(self):
        with pytest.raises(ValueError):
            batch([0], [0], [1])

    def test_for_dst(self):
        b = batch([0, 8, 16], [8, 8, 8], [1, 2, 1])
        sub = b.for_dst(1)
        assert sub.count == 2
        assert sub.addrs.tolist() == [0, 16]

    def test_destinations_sorted(self):
        b = batch([0, 8], [8, 8], [3, 1])
        assert b.destinations() == [1, 3]

    def test_concat(self):
        b = RemoteStoreBatch.concat(
            [batch([0], [8], [1]), RemoteStoreBatch.empty(), batch([8], [8], [2])]
        )
        assert b.count == 2

    def test_concat_all_empty(self):
        assert RemoteStoreBatch.concat([]).count == 0

    def test_footprint_merges_overlaps(self):
        b = batch([0, 4, 100], [8, 8, 8], [1, 1, 1])
        assert b.footprint().total_bytes == 20


class TestDMATransfer:
    def test_positive_only(self):
        with pytest.raises(ValueError):
            DMATransfer(dst=1, dst_addr=0, nbytes=0)

    def test_region(self):
        t = DMATransfer(dst=1, dst_addr=100, nbytes=50)
        assert t.region().total_bytes == 50
        assert not t.aggregated


class TestIterationTrace:
    def test_requires_ordered_phases(self):
        with pytest.raises(ValueError):
            IterationTrace([phase(1), phase(0)])

    def test_n_gpus(self):
        it = IterationTrace([phase(0), phase(1)])
        assert it.n_gpus == 2


class TestWorkloadTrace:
    def test_iteration_gpu_count_checked(self):
        with pytest.raises(ValueError):
            WorkloadTrace(
                name="x", n_gpus=2, iterations=[IterationTrace([phase(0)])]
            )

    def test_aggregates(self):
        it = IterationTrace([phase(0, batch([0, 8], [8, 16], [1, 1])), phase(1)])
        trace = WorkloadTrace(name="x", n_gpus=2, iterations=[it, it])
        assert trace.n_iterations == 2
        assert trace.total_remote_stores() == 4
        assert trace.total_remote_bytes() == 48
        assert sorted(trace.all_store_sizes().tolist()) == [8, 8, 16, 16]

    def test_all_store_sizes_empty(self):
        trace = WorkloadTrace(
            name="x", n_gpus=1, iterations=[IterationTrace([phase(0)])]
        )
        assert trace.all_store_sizes().size == 0


def sending_phase(gpu=0, work=None, reads=((0, 64),), **columns):
    """A phase with stores, atomics, reads and a DMA plan; ``columns``
    overrides any of the six op columns or ``dma``."""
    cols = {
        "addrs": [0, 8, 64],
        "sizes": [8, 8, 16],
        "dsts": [1, 2, 1],
        "aaddrs": [128, 256],
        "asizes": [4, 8],
        "adsts": [2, 1],
        "dma": [DMATransfer(dst=1, dst_addr=0, nbytes=80, aggregated=False)],
    }
    cols.update(columns)
    return KernelPhase(
        gpu=gpu,
        work=work or KernelWork(flops=1.0, dram_bytes=1.0),
        stores=batch(cols["addrs"], cols["sizes"], cols["dsts"]),
        atomics=batch(cols["aaddrs"], cols["asizes"], cols["adsts"]),
        reads=IntervalSet.from_ranges(*zip(*reads)),
        dma=cols["dma"],
    )


class TestPhaseDigests:
    def test_equal_content_equal_digests(self):
        a, b = sending_phase(), sending_phase()
        assert a.digest == b.digest
        assert a.reads_digest == b.reads_digest

    def test_reads_gpu_and_work_are_not_sent(self):
        # What a phase sends keys the egress and pair-cost memos; its
        # reads key the classification memo separately.
        base = sending_phase()
        other_reads = sending_phase(reads=((0, 32), (40, 8)))
        assert other_reads.digest == base.digest
        assert other_reads.reads_digest != base.reads_digest
        moved = sending_phase(gpu=3, work=KernelWork(flops=9.0, dram_bytes=2.0))
        assert moved.digest == base.digest

    @pytest.mark.parametrize(
        "column, value",
        [
            ("addrs", [0, 12, 64]),
            ("sizes", [8, 4, 16]),
            ("dsts", [1, 1, 1]),
            ("aaddrs", [128, 260]),
            ("asizes", [8, 8]),
            ("adsts", [1, 1]),
            ("dma", [DMATransfer(dst=2, dst_addr=0, nbytes=80)]),
            ("dma", [DMATransfer(dst=1, dst_addr=4, nbytes=80)]),
            ("dma", [DMATransfer(dst=1, dst_addr=0, nbytes=84)]),
            ("dma", [DMATransfer(dst=1, dst_addr=0, nbytes=80, aggregated=True)]),
            ("dma", []),
        ],
    )
    def test_any_sent_element_changes_the_digest(self, column, value):
        assert sending_phase(**{column: value}).digest != sending_phase().digest

    def test_store_and_atomic_columns_do_not_alias(self):
        # One op sent as a store or as an atomic hashes the same bytes;
        # only the column lengths tell the two apart.
        op = {"addrs": [64], "sizes": [8], "dsts": [1]}
        none = {"addrs": [], "sizes": [], "dsts": []}
        as_store = sending_phase(
            **op, **{"a" + k: v for k, v in none.items()}, dma=[]
        )
        as_atomic = sending_phase(
            **none, **{"a" + k: v for k, v in op.items()}, dma=[]
        )
        assert as_store.digest != as_atomic.digest
