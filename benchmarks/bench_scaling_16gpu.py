"""Sec. VI-B: scaling beyond 4 GPUs.

Runs the communication-heavy workloads on a 16-GPU, two-level PCIe 6.0
tree (the paper's projected system).  Shape targets: FinePack still
outperforms raw P2P stores (paper: 3x) and bulk DMA (paper: 1.9x), and
its per-GPU remote-write-queue SRAM stays at the paper's 120 kB.
"""

from repro.analysis import format_table, geomean
from repro.core.config import FinePackConfig
from repro.interconnect import PCIE_GEN6
from repro.run import RunSpec, labeled_sweep
from repro.workloads import ALSWorkload, HITWorkload, PagerankWorkload, SSSPWorkload

PARADIGMS = ("p2p", "dma", "finepack")


def _suite_16():
    # Communication-bound applications, scaled so 16 GPUs stay busy.
    return [
        PagerankWorkload(n=200_000, band_fraction=0.2),
        SSSPWorkload(n=200_000),
        ALSWorkload(n_users=32_000, n_items=8_000),
        HITWorkload(n=128),
    ]


def _run():
    rows = {}
    for workload in _suite_16():
        base = RunSpec.for_workload(
            workload,
            n_gpus=16,
            iterations=2,
            seed=7,
            generation=PCIE_GEN6,
            topology="two_level",
        )
        points = labeled_sweep(
            {p: base.with_options(paradigm=p) for p in PARADIGMS}
        ).result.by_label()
        rows[workload.name] = {p: points[p].speedup for p in PARADIGMS}
    return rows


def test_scaling_16_gpus(benchmark, emit):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    geo = {p: geomean([r[p] for r in rows.values()]) for p in PARADIGMS}
    table_rows = [[name, *(r[p] for p in PARADIGMS)] for name, r in rows.items()]
    table_rows.append(["GEOMEAN", *(geo[p] for p in PARADIGMS)])
    table = format_table(
        "Sec. VI-B: 16-GPU speedups over 1 GPU on PCIe 6.0 "
        "(paper: FinePack 3x over P2P, 1.9x over DMA)",
        ["workload", *PARADIGMS],
        table_rows,
        float_fmt="{:.2f}",
    )
    sram = FinePackConfig().queue_sram_bytes(16)
    table += f"\nremote write queue SRAM per GPU: {sram // 1024} kB (paper: 120 kB)"
    emit("scaling_16gpu", table)

    assert sram == 120 * 1024
    assert geo["finepack"] > geo["p2p"]
    assert geo["finepack"] > geo["dma"]
    # FinePack's lead over raw P2P widens on comm-bound apps at scale.
    assert geo["finepack"] / geo["p2p"] > 1.3
