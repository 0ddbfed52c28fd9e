"""Trace serialization round-trip tests."""

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
from repro.trace.tracefile import (
    load_trace,
    load_trace_dir,
    save_trace,
    save_trace_dir,
)
from repro.workloads import JacobiWorkload


def small_trace() -> WorkloadTrace:
    stores = RemoteStoreBatch(
        np.array([100, 200], dtype=np.int64),
        np.array([8, 16], dtype=np.int64),
        np.array([1, 1], dtype=np.int64),
    )
    phases = [
        KernelPhase(
            gpu=0,
            work=KernelWork(flops=10.0, dram_bytes=20.0, precision="fp32"),
            stores=stores,
            reads=IntervalSet.from_ranges([50], [10]),
            dma=[DMATransfer(dst=1, dst_addr=100, nbytes=64, aggregated=True)],
        ),
        KernelPhase(gpu=1, work=KernelWork(flops=5.0, dram_bytes=5.0)),
    ]
    return WorkloadTrace(
        name="toy",
        n_gpus=2,
        iterations=[IterationTrace(phases)],
        metadata={"k": 3},
    )


class TestRoundTrip:
    def test_manual_trace(self, tmp_path):
        path = tmp_path / "t.npz"
        original = small_trace()
        save_trace(original, path)
        loaded = load_trace(path)

        assert loaded.name == original.name
        assert loaded.n_gpus == original.n_gpus
        assert loaded.metadata == {"k": 3}
        p0, q0 = original.iterations[0].phases[0], loaded.iterations[0].phases[0]
        assert np.array_equal(p0.stores.addrs, q0.stores.addrs)
        assert np.array_equal(p0.stores.sizes, q0.stores.sizes)
        assert np.array_equal(p0.reads.starts, q0.reads.starts)
        assert q0.work.precision == "fp32"
        assert q0.dma == p0.dma

    def test_workload_trace(self, tmp_path):
        original = JacobiWorkload(n=64).generate_trace(n_gpus=2, iterations=2)
        path = tmp_path / "jacobi.npz"
        save_trace(original, path)
        loaded = load_trace(path)
        assert loaded.total_remote_stores() == original.total_remote_stores()
        assert loaded.total_remote_bytes() == original.total_remote_bytes()
        assert loaded.n_iterations == 2

    def test_version_check(self, tmp_path):
        import json

        path = tmp_path / "bad.npz"
        header = {"version": 99, "phases": []}
        np.savez(
            path,
            __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="version"):
            load_trace(path)


class TestColumnarDirectory:
    def test_manual_trace_round_trip(self, tmp_path):
        path = tmp_path / "t"
        original = small_trace()
        save_trace_dir(original, path)
        loaded = load_trace_dir(path)

        assert loaded.name == original.name
        assert loaded.n_gpus == original.n_gpus
        assert loaded.metadata == {"k": 3}
        p0, q0 = original.iterations[0].phases[0], loaded.iterations[0].phases[0]
        assert np.array_equal(p0.stores.addrs, q0.stores.addrs)
        assert np.array_equal(p0.stores.sizes, q0.stores.sizes)
        assert np.array_equal(p0.reads.starts, q0.reads.starts)
        assert q0.work.precision == "fp32"
        assert q0.dma == p0.dma
        # Empty phases survive: gpu 1 has no stores/atomics/reads.
        q1 = loaded.iterations[0].phases[1]
        assert q1.stores.count == 0 and q1.atomics.count == 0

    def test_matches_npz_round_trip(self, tmp_path):
        """Both formats reconstruct identical traces."""
        original = JacobiWorkload(n=64).generate_trace(n_gpus=2, iterations=2)
        save_trace(original, tmp_path / "t.npz")
        save_trace_dir(original, tmp_path / "t")
        a = load_trace(tmp_path / "t.npz")
        b = load_trace_dir(tmp_path / "t")
        assert a.total_remote_stores() == b.total_remote_stores()
        assert a.total_remote_bytes() == b.total_remote_bytes()
        for it_a, it_b in zip(a.iterations, b.iterations):
            for pa, pb in zip(it_a.phases, it_b.phases):
                assert pa.stores.addrs.tobytes() == pb.stores.addrs.tobytes()
                assert pa.reads.ends.tobytes() == pb.reads.ends.tobytes()

    def test_mmap_loads_are_read_only_views(self, tmp_path):
        original = JacobiWorkload(n=64).generate_trace(n_gpus=2, iterations=1)
        save_trace_dir(original, tmp_path / "t")
        loaded = load_trace_dir(tmp_path / "t", mmap=True)
        phase = loaded.iterations[0].phases[0]
        base = phase.stores.addrs.base
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)
        with pytest.raises(ValueError):
            phase.stores.addrs[0] = 1

    def test_mmap_slices_are_plain_ndarrays(self, tmp_path):
        # Phase slices skip np.memmap's Python-level slicing hooks.
        original = JacobiWorkload(n=64).generate_trace(n_gpus=2, iterations=1)
        save_trace_dir(original, tmp_path / "t")
        phase = load_trace_dir(tmp_path / "t", mmap=True).iterations[0].phases[0]
        assert type(phase.stores.addrs) is np.ndarray
        assert type(phase.reads.starts) is np.ndarray

    def test_layout_check(self, tmp_path):
        import json

        path = tmp_path / "bad"
        path.mkdir()
        (path / "header.json").write_text(
            json.dumps({"version": 2, "layout": "rowwise", "phases": []})
        )
        with pytest.raises(ValueError, match="layout"):
            load_trace_dir(path)


class TestDigests:
    def test_round_trips_keep_both_digests(self, tmp_path):
        original = small_trace()
        save_trace(original, tmp_path / "t.npz")
        save_trace_dir(original, tmp_path / "t")
        loaded = [load_trace(tmp_path / "t.npz"), load_trace_dir(tmp_path / "t")]
        for phase, *copies in zip(
            original.iterations[0].phases,
            *(t.iterations[0].phases for t in loaded),
        ):
            for copy in copies:
                assert copy.digest == phase.digest
                assert copy.reads_digest == phase.reads_digest
