#!/usr/bin/env python3
"""Tutorial: bring your own workload to the simulator.

Shows everything a new multi-GPU application needs to be evaluated
under every communication paradigm: subclass
:class:`~repro.workloads.MultiGPUWorkload`, partition your problem,
and implement ``iter_phases`` -- a generator yielding each iteration's
per-GPU kernel (compute work, remote stores, read sets, and the memcpy
plan) as ``(iteration, KernelPhase)`` and returning the trace metadata.

The example models a distributed histogram: each GPU processes a shard
of samples and pushes 8-byte bin updates into the peer replicas of a
shared histogram -- scattered fine-grained stores, the exact pattern
FinePack targets.

    python examples/custom_workload.py
"""

import numpy as np

# compare_paradigms/ExperimentConfig are maintained shims over the run
# layer (RunSpec + execute_grid); see docs/architecture.md, "Migration
# from the legacy entry points".
from repro import ExperimentConfig, compare_paradigms
from repro.analysis import format_table
from repro.gpu.compute import KernelWork
from repro.gpu.memory import MemorySpace
from repro.sim import render_comparison
from repro.trace.stream import DMATransfer, KernelPhase, RemoteStoreBatch
from repro.workloads import MultiGPUWorkload, contiguous_interval, push_elements
from repro.workloads.base import interleave
from repro.workloads.datasets import partition_bounds


class HistogramWorkload(MultiGPUWorkload):
    """Distributed histogram with replicated bins.

    Each GPU owns a shard of the samples and a partition of the bins.
    After accumulating locally, it pushes the bins it touched into the
    owning GPU's replica (one 8 B counter each).  Heavy-tailed sample
    values concentrate on popular bins, so pushes are scattered and
    repeat across iterations.
    """

    name = "histogram"
    comm_pattern = "many-to-many"

    def __init__(self, n_bins: int = 200_000, total_samples: int = 240_000) -> None:
        self.n_bins = n_bins
        self.total_samples = total_samples

    def iter_phases(self, n_gpus, iterations=3, seed=7):
        rng = np.random.default_rng(seed)
        bounds = partition_bounds(self.n_bins, n_gpus)
        memory = MemorySpace(n_gpus)
        hist = memory.alloc_replicated("histogram.bins", self.n_bins * 8)
        # Strong scaling: the sample set is fixed, each GPU gets a shard.
        shard = self.total_samples // n_gpus

        # One phase per GPU per iteration, iteration-major, GPU order.
        for it in range(iterations):
            for g in range(n_gpus):
                # Heavy-tailed bin popularity (Zipf-ish).
                u = rng.random(shard)
                bins = np.minimum(
                    (self.n_bins * u**3).astype(np.int64), self.n_bins - 1
                )
                owners = np.searchsorted(bounds, bins, side="right") - 1
                work = KernelWork(flops=4.0 * shard, dram_bytes=16.0 * shard)
                batches, dma = [], []
                for d in range(n_gpus):
                    if d == g:
                        continue
                    touched = np.unique(bins[owners == d])
                    if touched.size == 0:
                        continue
                    batches.append(
                        push_elements(
                            interleave(touched, 64), 8, d, hist.replicas[d]
                        )
                    )
                    # The memcpy port copies the whole remote bin block.
                    lo = int(bounds[d])
                    dma.append(
                        DMATransfer(
                            dst=d,
                            dst_addr=hist.replicas[d] + lo * 8,
                            nbytes=(int(bounds[d + 1]) - lo) * 8,
                        )
                    )
                reads = contiguous_interval(
                    hist.replicas[g] + int(bounds[g]) * 8,
                    (int(bounds[g + 1]) - int(bounds[g])) * 8,
                )
                yield it, KernelPhase(
                    gpu=g,
                    work=work,
                    stores=RemoteStoreBatch.concat(batches),
                    reads=reads,
                    dma=dma,
                )
        return {"n_bins": self.n_bins}


def main() -> None:
    workload = HistogramWorkload()
    result = compare_paradigms(
        workload,
        paradigms=("p2p", "dma", "finepack", "infinite"),
        config=ExperimentConfig(iterations=3),
    )
    print(
        format_table(
            "histogram: 4-GPU speedups",
            ["paradigm", "speedup", "wire_MB", "stores/pkt"],
            [
                [
                    p,
                    result.speedup(p),
                    result.runs[p].wire_bytes / 1e6,
                    result.runs[p].packets.mean_stores_per_packet,
                ]
                for p in result.runs
            ],
            float_fmt="{:.2f}",
        )
    )
    print()
    print(render_comparison(result.runs))


if __name__ == "__main__":
    main()
