#!/usr/bin/env python3
"""Reproduce the paper's headline evaluation in one run.

Runs the full application suite under the four Figure 9 paradigms,
prints the speedup matrix, byte breakdown summary, and coalescing
statistics, and writes a consolidated REPORT.md next to this script.

This is the expensive, everything-at-once version of what the
per-figure benches do; expect a couple of minutes.

    python examples/reproduce_paper.py [--fast]
"""

import sys
import time
from pathlib import Path

from repro.analysis import (
    breakdown_rows,
    data_reduction_factors,
    format_speedup_table,
    format_table,
    geomean,
)
from repro.run import RunSpec, labeled_sweep
from repro.workloads import default_suite, small_suite

PARADIGMS = ("p2p", "dma", "finepack", "infinite")


def main() -> None:
    fast = "--fast" in sys.argv
    suite = small_suite() if fast else default_suite()
    iterations = 2 if fast else 3

    sections = []
    speedups: dict[str, dict[str, float]] = {}
    reductions = []
    coalescing = []
    breakdown = []
    t0 = time.time()
    for workload in suite:
        print(f"running {workload.name} ...", flush=True)
        base = RunSpec.for_workload(workload, iterations=iterations)
        sweep = labeled_sweep({p: base.with_options(paradigm=p) for p in PARADIGMS})
        points = sweep.result.by_label()
        runs = {p: points[p].metrics for p in PARADIGMS}
        speedups[workload.name] = {p: points[p].speedup for p in PARADIGMS}
        reductions.append(data_reduction_factors(runs))
        coalescing.append(
            [workload.name, runs["finepack"].packets.mean_stores_per_packet]
        )
        breakdown.extend(breakdown_rows(runs))
    elapsed = time.time() - t0

    sections.append(format_speedup_table("Figure 9: 4-GPU speedups", speedups))
    geo = {p: geomean([s[p] for s in speedups.values()]) for p in PARADIGMS}
    sections.append(
        format_table(
            "geomeans vs paper",
            ["paradigm", "measured", "paper"],
            [
                ["p2p", geo["p2p"], "~0.8"],
                ["dma", geo["dma"], "~1.7"],
                ["finepack", geo["finepack"], "~2.4"],
                ["infinite", geo["infinite"], "~3.4"],
            ],
            float_fmt="{:.2f}",
        )
    )
    sections.append(
        format_table(
            "FinePack data reduction (geomean; paper: 2.7x/1.3x)",
            ["vs p2p", "vs dma"],
            [[
                geomean([r["p2p"] for r in reductions]),
                geomean([r["dma"] for r in reductions]),
            ]],
            float_fmt="{:.2f}",
        )
    )
    sections.append(
        format_table(
            "Figure 11: stores per packet (paper mean: 42)",
            ["workload", "stores/pkt"],
            coalescing,
            float_fmt="{:.1f}",
        )
    )
    sections.append(
        format_table(
            "Figure 10: bytes normalized to DMA",
            ["workload", "paradigm", "useful", "overhead", "wasted", "total"],
            breakdown,
        )
    )
    captured = geo["finepack"] / geo["infinite"]
    sections.append(
        f"FinePack captures {captured:.0%} of the infinite-bandwidth "
        f"opportunity (paper: 71%).  Total run time: {elapsed:.0f}s."
    )

    report = "\n\n".join(sections)
    print("\n" + report)
    out = Path(__file__).parent / "REPORT.md"
    out.write_text("# Reproduction report\n\n```\n" + report + "\n```\n")
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
