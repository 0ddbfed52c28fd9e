"""Atomics through the full simulation stack (paper Sec. IV-C)."""

import numpy as np
import pytest

from repro.gpu.compute import KernelWork
from repro.interconnect.message import MessageKind
from repro.interconnect.pcie import PCIE_GEN4, PCIeProtocol
from repro.run import RunSpec, labeled_sweep
from repro.sim.paradigms import FinePackParadigm, P2PStoreParadigm
from repro.trace.stream import IterationTrace, KernelPhase, RemoteStoreBatch, WorkloadTrace
from repro.workloads import PagerankWorkload

BASE = 1 << 34


def batch(addrs, dsts=None, size=8):
    addrs = np.asarray(addrs, np.int64)
    dsts = np.asarray(dsts if dsts is not None else addrs >> 34, np.int64)
    return RemoteStoreBatch(addrs, np.full(addrs.size, size, np.int64), dsts)


def phase_with_atomics(n_stores=8, n_atomics=4):
    return KernelPhase(
        gpu=0,
        work=KernelWork(flops=0, dram_bytes=1e6),
        stores=batch(BASE + np.arange(n_stores) * 256),
        atomics=batch(BASE + (1 << 20) + np.arange(n_atomics) * 256),
    )


class TestParadigmAtomicHandling:
    def test_atomics_emitted_as_atomic_messages(self):
        p = FinePackParadigm()
        p.attach(2, PCIeProtocol(PCIE_GEN4))
        msgs = p.phase_messages(phase_with_atomics(), 0.0, 100.0, {})
        kinds = [m.kind for m in msgs]
        assert kinds.count(MessageKind.ATOMIC) == 4
        assert MessageKind.FINEPACK in kinds  # stores still pack

    def test_atomics_interleaved_in_time(self):
        p = P2PStoreParadigm()
        p.attach(2, PCIeProtocol(PCIE_GEN4))
        msgs = p.phase_messages(phase_with_atomics(8, 4), 0.0, 120.0, {})
        atomic_times = [m.issue_time for m in msgs if m.kind is MessageKind.ATOMIC]
        store_times = [m.issue_time for m in msgs if m.kind is MessageKind.STORE]
        # Atomics are spread through the kernel, not bunched at the end.
        assert min(atomic_times) < max(store_times)

    def test_issue_times_cover_all_ops(self):
        p = P2PStoreParadigm()
        p.attach(2, PCIeProtocol(PCIE_GEN4))
        msgs = p.phase_messages(phase_with_atomics(6, 6), 0.0, 120.0, {})
        assert len(msgs) == 12
        assert max(m.issue_time for m in msgs) <= 120.0


class TestAtomicPagerank:
    @pytest.fixture(scope="class")
    def comparison(self):
        """``{paradigm: RunMetrics}`` for the atomicAdd port."""
        base = RunSpec.for_workload(
            PagerankWorkload(n=16_000, use_atomics=True), iterations=2
        )
        paradigms = ("p2p", "finepack", "infinite")
        sweep = labeled_sweep({p: base.with_options(paradigm=p) for p in paradigms})
        return {p.label: p.metrics for p in sweep.result.points}

    def test_finepack_cannot_help_atomics(self, comparison):
        """Sec. IV-C: atomics are never coalesced, so the atomic port
        sees zero benefit from FinePack."""
        fp = comparison["finepack"]
        p2p = comparison["p2p"]
        assert fp.wire_bytes == p2p.wire_bytes
        assert fp.total_time_ns == pytest.approx(p2p.total_time_ns, rel=0.01)

    def test_trace_contains_atomics_not_stores(self):
        trace = PagerankWorkload(n=8_000, use_atomics=True).generate_trace(4, 1)
        it = trace.iterations[0]
        assert all(p.stores.count == 0 for p in it.phases)
        assert any(p.atomics.count > 0 for p in it.phases)

    def test_atomic_bytes_counted_useful(self, comparison):
        """Atomic targets are in the consumer's accumulator read set."""
        assert comparison["p2p"].bytes.useful > 0


class TestAtomicTraceReplay:
    def test_save_load_roundtrip(self, tmp_path):
        from repro.trace.tracefile import load_trace, save_trace

        trace = PagerankWorkload(n=8_000, use_atomics=True).generate_trace(2, 1)
        save_trace(trace, tmp_path / "t.npz")
        loaded = load_trace(tmp_path / "t.npz")
        orig = trace.iterations[0].phases[0].atomics
        got = loaded.iterations[0].phases[0].atomics
        assert np.array_equal(orig.addrs, got.addrs)
