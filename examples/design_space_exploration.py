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

from repro import FinePackConfig, MultiGPUSystem
from repro.analysis import format_table
from repro.interconnect import GENERATIONS
from repro.sim.paradigms import FinePackParadigm, make_paradigm
from repro.workloads import SSSPWorkload


def main() -> None:
    workload = SSSPWorkload()
    trace = workload.generate_trace(n_gpus=4, iterations=3, seed=7)
    single = workload.generate_trace(n_gpus=1, iterations=3, seed=7)
    t1 = (
        MultiGPUSystem.build(n_gpus=1)
        .run(single, make_paradigm("infinite"))
        .total_time_ns
    )

    rows = []
    for b in (2, 3, 4, 5, 6):
        cfg = FinePackConfig(subheader_bytes=b)
        system = MultiGPUSystem.build(n_gpus=4, finepack_config=cfg)
        m = system.run(trace, FinePackParadigm(cfg))
        rows.append(
            [
                b,
                f"{cfg.window_bytes:,} B",
                t1 / m.total_time_ns,
                m.wire_bytes / 1e6,
                m.packets.mean_stores_per_packet,
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
    rows = []
    for gen in sorted(GENERATIONS):
        generation = GENERATIONS[gen]
        per_paradigm = []
        for paradigm in ("p2p", "dma", "finepack"):
            system = MultiGPUSystem.build(n_gpus=4, generation=generation)
            m = system.run(trace, make_paradigm(paradigm))
            per_paradigm.append(t1 / m.total_time_ns)
        rows.append([generation.name, *per_paradigm])
    print(
        format_table(
            f"{workload.name}: interconnect bandwidth sweep (Fig. 13)",
            ["link", "p2p", "dma", "finepack"],
            rows,
            float_fmt="{:.2f}",
        )
    )
    print("\nFinePack leads at every bandwidth step -- more link bandwidth "
          "narrows but never closes the gap (paper Sec. VI-A).")


if __name__ == "__main__":
    main()
