#!/usr/bin/env python3
"""Design-space exploration: sub-header size and link bandwidth.

Reproduces the paper's two sensitivity studies on one workload:

* Figure 12 -- sweep the FinePack sub-transaction header from 2 to 6
  bytes (64 B to 256 GB aggregation windows) and watch the sweet spot
  appear at 4-5 bytes.
* Figure 13 -- sweep the interconnect from PCIe 3.0 to the projected
  PCIe 6.0 and watch FinePack stay ahead of both baselines at every
  bandwidth step.

    python examples/design_space_exploration.py
"""

from repro import FinePackConfig
from repro.analysis import format_table
from repro.interconnect import GENERATIONS
from repro.run import RunSpec, TraceCache, labeled_sweep
from repro.workloads import SSSPWorkload

PARADIGMS = ("p2p", "dma", "finepack")


def main() -> None:
    workload = SSSPWorkload()
    base = RunSpec.for_workload(workload, n_gpus=4, iterations=3, seed=7)
    # Both sweeps replay the same trace; share it across them.
    cache = TraceCache()

    configs = {b: FinePackConfig(subheader_bytes=b) for b in (2, 3, 4, 5, 6)}
    points = labeled_sweep(
        {str(b): base.with_options(finepack=cfg) for b, cfg in configs.items()},
        trace_cache=cache,
    ).result.by_label()
    rows = []
    for b, cfg in configs.items():
        point = points[str(b)]
        rows.append(
            [
                b,
                f"{cfg.window_bytes:,} B",
                point.speedup,
                point.metrics.wire_bytes / 1e6,
                point.metrics.packets.mean_stores_per_packet,
            ]
        )
    print(
        format_table(
            f"{workload.name}: sub-header size sweep (Fig. 12)",
            ["subheader_B", "window", "speedup", "wire_MB", "stores/pkt"],
            rows,
            float_fmt="{:.2f}",
        )
    )

    print()
    points = labeled_sweep(
        {
            f"{gen}/{p}": base.with_options(generation=generation, paradigm=p)
            for gen, generation in GENERATIONS.items()
            for p in PARADIGMS
        },
        trace_cache=cache,
    ).result.by_label()
    rows = [
        [generation.name, *(points[f"{gen}/{p}"].speedup for p in PARADIGMS)]
        for gen, generation in sorted(GENERATIONS.items())
    ]
    print(
        format_table(
            f"{workload.name}: interconnect bandwidth sweep (Fig. 13)",
            ["link", *PARADIGMS],
            rows,
            float_fmt="{:.2f}",
        )
    )
    print("\nFinePack leads at every bandwidth step -- more link bandwidth "
          "narrows but never closes the gap (paper Sec. VI-A).")


if __name__ == "__main__":
    main()
