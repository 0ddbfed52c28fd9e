"""Figure 13: performance sensitivity to interconnect bandwidth.

Sweeps PCIe 3.0 through the projected 6.0 (16 to 128 GB/s per
direction).  Shape targets: every paradigm improves with bandwidth, the
baselines improve faster (they waste more wire bytes), but neither bulk
DMA nor raw P2P stores catch FinePack at any bandwidth step.
"""

from repro.analysis import format_table, geomean
from repro.interconnect import GENERATIONS
from repro.run import RunSpec, labeled_sweep
from repro.workloads import default_suite

PARADIGMS = ("p2p", "dma", "finepack")


def _sweep():
    gens = sorted(GENERATIONS)
    speedups: dict[int, dict[str, list[float]]] = {
        gen: {p: [] for p in PARADIGMS} for gen in gens
    }
    for workload in default_suite():
        base = RunSpec.for_workload(workload, n_gpus=4, iterations=2, seed=7)
        points = labeled_sweep(
            {
                f"{gen}/{p}": base.with_options(generation=GENERATIONS[gen], paradigm=p)
                for gen in gens
                for p in PARADIGMS
            }
        ).result.by_label()
        for gen in gens:
            for p in PARADIGMS:
                speedups[gen][p].append(points[f"{gen}/{p}"].speedup)
    return {
        gen: {p: geomean(v) for p, v in per_paradigm.items()}
        for gen, per_paradigm in speedups.items()
    }


def test_fig13_bandwidth_sensitivity(benchmark, emit):
    geo = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    rows = [
        [GENERATIONS[gen].name, *(geo[gen][p] for p in PARADIGMS)]
        for gen in sorted(geo)
    ]
    emit(
        "fig13_bandwidth_sweep",
        format_table(
            "Figure 13: geomean speedup vs interconnect bandwidth",
            ["link", *PARADIGMS],
            rows,
            float_fmt="{:.2f}",
        ),
    )

    # --- shape assertions -------------------------------------------
    for p in PARADIGMS:
        series = [geo[g][p] for g in sorted(geo)]
        # Monotone improvement with bandwidth.
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:])), p
    for gen in geo:
        # FinePack stays ahead of both baselines at every step.
        assert geo[gen]["finepack"] >= geo[gen]["dma"], gen
        assert geo[gen]["finepack"] >= geo[gen]["p2p"], gen
    # The baselines close part of the gap as bandwidth grows.
    gens = sorted(geo)
    gap_first = geo[gens[0]]["finepack"] / geo[gens[0]]["p2p"]
    gap_last = geo[gens[-1]]["finepack"] / geo[gens[-1]]["p2p"]
    assert gap_last < gap_first
