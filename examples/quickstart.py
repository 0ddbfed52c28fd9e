#!/usr/bin/env python3
"""Quickstart: reproduce the paper's core experiment on one workload.

Runs the Jacobi solver on a simulated 4x GV100 / PCIe 4.0 system under
every communication paradigm and prints 4-GPU speedups over a single
GPU (the paper's Figure 9 bars) plus the wire-traffic comparison.

    python examples/quickstart.py [workload]

where ``workload`` is one of jacobi, pagerank, sssp, als, ct, eqwp,
diffusion, hit (default: jacobi).
"""

import sys

from repro import registry
from repro.analysis import format_table
from repro.run import RunSpec, labeled_sweep


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "jacobi"
    try:
        workload = registry.workloads.resolve(name)()
    except registry.RegistryError as exc:
        raise SystemExit(str(exc)) from None

    print(f"Tracing '{name}' ({workload.comm_pattern} communication) ...")
    # One spec per paradigm; the sweep adds the single-GPU baseline the
    # speedups normalize against.
    base = RunSpec.for_workload(workload, n_gpus=4, iterations=3)
    sweep = labeled_sweep(
        {
            p: base.with_options(paradigm=p)
            for p in ("p2p", "dma", "finepack", "infinite")
        }
    )

    rows = []
    for point in sweep.result.points:
        run = point.metrics
        rows.append(
            [
                point.label,
                point.speedup,
                run.total_time_ns / 1e6,
                run.wire_bytes / 1e6,
                run.goodput,
                run.packets.mean_stores_per_packet,
            ]
        )
    print()
    print(
        format_table(
            f"{name}: 4-GPU results (single-GPU time "
            f"{sweep.baseline.metrics.total_time_ns / 1e6:.3f} ms)",
            ["paradigm", "speedup", "time_ms", "wire_MB", "goodput", "stores/pkt"],
            rows,
        )
    )
    points = sweep.result.by_label()
    fp = points["finepack"]
    p2p = points["p2p"]
    if fp.metrics.wire_bytes:
        print(
            f"\nFinePack moved {p2p.metrics.wire_bytes / fp.metrics.wire_bytes:.2f}x "
            f"less data than raw peer-to-peer stores and ran "
            f"{fp.speedup / p2p.speedup:.2f}x faster."
        )

if __name__ == "__main__":
    main()
