"""MultiGPUSystem integration tests on hand-built traces."""

import numpy as np
import pytest

from repro import registry
from repro.gpu.compute import ComputeModel, KernelWork
from repro.interconnect.pcie import PCIE_GEN4, PCIE_GEN6
from repro.sim.system import MultiGPUSystem
from repro.trace.intervals import IntervalSet
from repro.trace.stream import (
    DMATransfer,
    IterationTrace,
    KernelPhase,
    RemoteStoreBatch,
    WorkloadTrace,
)


def toy_trace(n_gpus=2, n_stores=64, iterations=2, dram=9_000_000) -> WorkloadTrace:
    """GPU 0 scatters 8 B stores into GPU 1's aperture each iteration."""
    base = 1 << 34
    addrs = base + np.arange(n_stores, dtype=np.int64) * 256
    phases = [
        KernelPhase(
            gpu=0,
            work=KernelWork(flops=0, dram_bytes=dram),
            stores=RemoteStoreBatch(
                addrs, np.full(n_stores, 8, np.int64), np.ones(n_stores, np.int64)
            ),
            dma=[DMATransfer(dst=1, dst_addr=int(base), nbytes=int(n_stores * 256))],
        ),
        KernelPhase(
            gpu=1,
            work=KernelWork(flops=0, dram_bytes=dram),
            reads=IntervalSet.from_ranges(addrs, np.full(n_stores, 8, np.int64)),
        ),
    ] + [
        KernelPhase(gpu=g, work=KernelWork(flops=0, dram_bytes=dram))
        for g in range(2, n_gpus)
    ]
    return WorkloadTrace(
        name="toy", n_gpus=n_gpus, iterations=[IterationTrace(phases)] * iterations
    )


def run(paradigm_name, trace=None, **build_kw):
    trace = trace or toy_trace()
    system = MultiGPUSystem.build(n_gpus=trace.n_gpus, **build_kw)
    return system.run(trace, registry.paradigms.resolve(paradigm_name)())


class TestTiming:
    def test_infinite_is_fastest(self):
        times = {p: run(p).total_time_ns for p in ("p2p", "dma", "finepack", "infinite")}
        assert min(times, key=times.get) == "infinite"

    def test_finepack_beats_p2p_when_comm_bound(self):
        trace = toy_trace(n_stores=8192, dram=500_000)
        assert run("finepack", trace=trace).total_time_ns < run("p2p", trace=trace).total_time_ns

    def test_finepack_flush_tail_is_small_when_compute_bound(self):
        """The release-flush drain after the kernel costs at most a few
        percent (the paper argues it is dwarfed by the barrier)."""
        fp, p2p = run("finepack"), run("p2p")
        assert fp.total_time_ns <= p2p.total_time_ns * 1.02

    def test_iteration_times_sum_to_total(self):
        m = run("finepack")
        assert sum(m.iteration_times_ns) == pytest.approx(m.total_time_ns)

    def test_faster_interconnect_helps_comm_bound(self):
        trace = toy_trace(n_stores=512)
        slow = run("p2p", trace=trace, generation=PCIE_GEN4)
        fast = run("p2p", trace=trace, generation=PCIE_GEN6)
        assert fast.total_time_ns <= slow.total_time_ns

    def test_kernel_time_delegates_to_compute_model(self):
        compute = ComputeModel(efficiency=1.0, launch_overhead_ns=0)
        kernel = compute.duration_ns(KernelWork(flops=0, dram_bytes=9_000_000))
        assert kernel == pytest.approx(10_000.0)
        # Every GPU runs that kernel in both toy iterations.
        m = run("infinite", compute=compute)
        assert m.compute_time_ns == pytest.approx(2 * kernel)

    def test_dma_pays_call_overhead(self):
        m = run("dma")
        assert m.total_time_ns > m.compute_time_ns


class TestByteAccounting:
    def test_p2p_all_stores_useful_when_read(self):
        m = run("p2p")
        assert m.bytes.useful == 2 * 64 * 8  # every byte read, 2 iters
        assert m.bytes.wasted == 0

    def test_dma_overtransfer_classified(self):
        m = run("dma")
        # Copies 256 B-strided region but only 8 B per 256 B are written+read.
        assert m.bytes.useful == 2 * 64 * 8
        assert m.bytes.wasted_unread > 0

    def test_finepack_wire_bytes_below_p2p(self):
        assert run("finepack").wire_bytes < run("p2p").wire_bytes

    def test_infinite_moves_nothing(self):
        assert run("infinite").wire_bytes == 0

    def test_packet_counts(self):
        m = run("p2p")
        assert m.packets.messages == 2 * 64
        fp = run("finepack")
        assert fp.packets.messages < 2 * 64
        assert fp.packets.stores_carried == 2 * 64


class TestValidation:
    def test_gpu_count_mismatch(self):
        system = MultiGPUSystem.build(n_gpus=4)
        with pytest.raises(ValueError, match="GPUs"):
            system.run(toy_trace(n_gpus=2), registry.paradigms.resolve("p2p")())

    def test_single_gpu_system_runs_compute_only(self):
        trace = WorkloadTrace(
            name="solo",
            n_gpus=1,
            iterations=[
                IterationTrace(
                    [KernelPhase(gpu=0, work=KernelWork(flops=0, dram_bytes=9e6))]
                )
            ],
        )
        system = MultiGPUSystem.build(n_gpus=1)
        m = system.run(trace, registry.paradigms.resolve("infinite")())
        assert m.total_time_ns > 0
        assert m.wire_bytes == 0

    def test_two_level_topology_build(self):
        system = MultiGPUSystem.build(n_gpus=16, topology_kind="two_level")
        assert system.topology is not None
        assert system.topology.n_gpus == 16

    def test_fully_connected_build_and_run(self):
        system = MultiGPUSystem.build(n_gpus=4, topology_kind="fully_connected")
        trace4 = toy_trace(n_gpus=4)
        m = system.run(trace4, registry.paradigms.resolve("p2p")())
        assert m.wire_bytes > 0

    def test_fully_connected_beats_switch_for_contended_traffic(self):
        trace = toy_trace(n_gpus=2, n_stores=4096, dram=500_000)
        p2p = registry.paradigms.resolve("p2p")
        switched = MultiGPUSystem.build(n_gpus=2).run(trace, p2p())
        flat = MultiGPUSystem.build(
            n_gpus=2, topology_kind="fully_connected"
        ).run(trace, p2p())
        assert flat.total_time_ns <= switched.total_time_ns

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            MultiGPUSystem.build(n_gpus=4, topology_kind="torus")

    def test_custom_compute_model(self):
        fast = MultiGPUSystem.build(
            n_gpus=2, compute=ComputeModel(efficiency=1.0, launch_overhead_ns=0)
        )
        slow = MultiGPUSystem.build(
            n_gpus=2, compute=ComputeModel(efficiency=0.25, launch_overhead_ns=0)
        )
        t = toy_trace()
        assert (
            fast.run(t, registry.paradigms.resolve("infinite")()).total_time_ns
            < slow.run(t, registry.paradigms.resolve("infinite")()).total_time_ns
        )
