"""Sec. VI-B comparison: FinePack vs GPS and vs write combining.

GPS (MICRO'21) is modelled by its two first-order mechanisms: dynamic
page-granularity replica subscription (epoch 0 publishes everything,
written-but-unread pages unsubscribe) and sector-granularity transfers
(32 B rounding -- the paper's "unneeded transfers within a cacheline").

Shape targets: the designs land in the same performance class (the
paper reports FinePack 17.8% slower than GPS on average), and each
wins in its regime -- GPS where subscription has broadcast traffic to
elide ("GPS performs best where subscription benefits offset the
inefficiency"), FinePack on the fine-grained graph workloads ("in
other workloads FinePack performs better than GPS").  Write combining
alone always trails FinePack in wire bytes (Sec. VI-A: ~24%).
"""

import numpy as np

from repro.analysis import format_table
from repro.gpu.compute import KernelWork
from repro.gpu.memory import MemorySpace
from repro.sim.paradigms import GPSParadigm
from repro.sim.runner import ExperimentConfig, compare_paradigms, geomean
from repro.trace.intervals import IntervalSet
from repro.trace.stream import DMATransfer, KernelPhase, RemoteStoreBatch
from repro.workloads import MultiGPUWorkload, push_elements
from repro.workloads.base import interleave
from repro.workloads.datasets import partition_bounds


class _BroadcastWorkload(MultiGPUWorkload):
    """The regime where GPS's subscription shines (paper Sec. VI-B):
    producers broadcast every update to every replica, but each
    consumer reads only a contiguous quarter of each producer's range
    -- 75% of the broadcast is elidable, and because consumption is
    clustered, page-granularity learning finds it.  Records are 32 B
    (sector-aligned, like ALS factors), so GPS pays no rounding tax."""

    name = "broadcast"
    comm_pattern = "all-to-all"

    def __init__(self, n: int = 24_000):
        self.n = n

    def iter_phases(self, n_gpus, iterations=3, seed=7):
        bounds = partition_bounds(self.n, n_gpus)
        memory = MemorySpace(n_gpus)
        buf = memory.alloc_replicated("broadcast.data", self.n * 32)
        phases = []
        for g in range(n_gpus):
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            owned = hi - lo
            work = KernelWork(flops=6.0 * owned, dram_bytes=24.0 * owned)
            batches, dma = [], []
            ids = interleave(np.arange(lo, hi, dtype=np.int64), 64)
            for d in range(n_gpus):
                if d == g:
                    continue
                batches.append(push_elements(ids, 32, d, buf.replicas[d]))
                dma.append(
                    DMATransfer(
                        dst=d, dst_addr=buf.replicas[d] + lo * 32, nbytes=owned * 32
                    )
                )
            # Consumer g reads a contiguous quarter of every producer's
            # block (its region of interest).
            starts, lens = [], []
            for o in range(n_gpus):
                if o == g:
                    continue
                olo, ohi = int(bounds[o]), int(bounds[o + 1])
                span = (ohi - olo) // 4
                offset = olo + (g % 4) * span
                starts.append(buf.replicas[g] + offset * 32)
                lens.append(span * 32)
            phases.append(
                KernelPhase(
                    gpu=g,
                    work=work,
                    stores=RemoteStoreBatch.concat(batches),
                    reads=IntervalSet.from_ranges(starts, lens),
                    dma=dma,
                )
            )
        # Every iteration broadcasts the same updates.
        for it in range(iterations):
            for phase in phases:
                yield it, phase
        return {}


def test_gps_and_wc_comparison(benchmark, suite_results, emit):
    def collect():
        rows = []
        for name, res in suite_results.items():
            rows.append(
                [
                    name,
                    res.speedup("finepack"),
                    res.speedup("gps"),
                    res.speedup("wc"),
                    res.runs["wc"].wire_bytes / max(res.runs["finepack"].wire_bytes, 1),
                ]
            )
        # The broadcast regime: consumers read a quarter of what they
        # receive, clustered -- GPS's home turf.
        bc = compare_paradigms(
            _BroadcastWorkload(),
            paradigms=("finepack", GPSParadigm(subscription="learned"), "p2p"),
            config=ExperimentConfig(iterations=4),
        )
        return rows, bc

    rows, bc = benchmark.pedantic(collect, rounds=1, iterations=1)

    fp_geo = geomean([r[1] for r in rows])
    gps_geo = geomean([r[2] for r in rows])
    wc_geo = geomean([r[3] for r in rows])
    rows.append(["GEOMEAN", fp_geo, gps_geo, wc_geo, float("nan")])
    table = format_table(
        "Sec. VI-B: FinePack vs GPS (learned subscription) vs write "
        "combining (paper: FinePack 17.8% slower than GPS on average)",
        ["workload", "finepack", "gps", "wc", "wc/fp wire"],
        rows,
        float_fmt="{:.2f}",
    )
    bc_fp, bc_gps, bc_p2p = (
        bc.speedup("finepack"), bc.speedup("gps"), bc.speedup("p2p")
    )
    table += (
        f"\nbroadcast regime (consumers read 25% of what they receive): "
        f"GPS {bc_gps:.2f} vs FinePack {bc_fp:.2f} vs raw P2P {bc_p2p:.2f} "
        f"-- learned subscription wins where it has traffic to elide "
        f"(paper Sec. VI-B)."
        f"\nNote: the suite's graph workloads push subscription-exact "
        f"sets, so page-granular learning finds nothing to trim there "
        f"and GPS trails FinePack overall, unlike the paper's "
        f"broadcast-style reference implementations (EXPERIMENTS.md)."
    )
    emit("gps_comparison", table)

    # The designs are in the same performance class.
    assert 0.9 < fp_geo / gps_geo < 1.9
    # Each design wins in its regime (the paper's two-sided finding).
    assert bc_gps > bc_fp > bc_p2p
    by_name = {r[0]: r for r in rows[:-1]}
    assert by_name["pagerank"][1] > by_name["pagerank"][2]  # FP > GPS
    # Write combining alone never beats FinePack's wire efficiency.
    wire_ratios = [r[4] for r in rows[:-1] if r[4] == r[4]]
    assert geomean(wire_ratios) > 1.05
