#!/usr/bin/env python3
"""Irregular graph analytics: why fine-grained stores hurt, and how
FinePack fixes them.

Walks through the paper's motivation on PageRank and SSSP:

1. the store-size distribution leaving the L1 (Figure 4),
2. the byte breakdown on the wire under each paradigm (Figure 10),
3. coalescing statistics (Figure 11),
4. the resulting strong-scaling speedups (Figure 9).

    python examples/irregular_graph_analytics.py
"""

from repro.analysis import breakdown_rows, format_table
from repro.gpu import size_histogram
from repro.run import RunSpec, labeled_sweep
from repro.workloads import PagerankWorkload, SSSPWorkload


def main() -> None:
    for workload in (PagerankWorkload(), SSSPWorkload()):
        base = RunSpec.for_workload(workload, n_gpus=4, iterations=3)
        trace = workload.generate_trace(
            n_gpus=base.n_gpus, iterations=base.iterations, seed=base.seed
        )
        hist = size_histogram(trace.all_store_sizes())
        print(
            format_table(
                f"{workload.name}: remote-store sizes leaving the L1 (Fig. 4)",
                ["bucket", "fraction"],
                [[k, v] for k, v in hist.items()],
            )
        )
        small = sum(v for k, v in hist.items() if k in ("<=4B", "<=8B", "<=16B", "<=32B"))
        print(f"  -> {small:.0%} of transfers carry <= 32 B payloads\n")

        sweep = labeled_sweep(
            {
                p: base.with_options(paradigm=p)
                for p in ("p2p", "dma", "finepack", "infinite")
            }
        )
        runs = {p.label: p.metrics for p in sweep.result.points}
        print(
            format_table(
                f"{workload.name}: wire bytes normalized to bulk DMA (Fig. 10)",
                ["workload", "paradigm", "useful", "overhead", "wasted", "total"],
                breakdown_rows(runs),
            )
        )
        fp = runs["finepack"]
        print(
            f"\n  FinePack packs {fp.packets.mean_stores_per_packet:.1f} "
            f"stores per transaction on average (Fig. 11)\n"
        )
        print(
            format_table(
                f"{workload.name}: 4-GPU speedups (Fig. 9)",
                ["paradigm", "speedup"],
                [[p.label, p.speedup] for p in sweep.result.points],
                float_fmt="{:.2f}",
            )
        )
        print("\n" + "=" * 60 + "\n")


if __name__ == "__main__":
    main()
