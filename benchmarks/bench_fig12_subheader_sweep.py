"""Figure 12 (and Table II): sensitivity to sub-header size.

Sweeps the sub-transaction header from 2 to 6 bytes (64 B to 256 GB
aggregation windows per Table II) across the workload suite.  Shape
targets: performance rises to a maximum at 4 bytes, changes little at
5, and degrades for tiny windows (2 bytes thrash the write queue).
"""

from repro.analysis import format_table, geomean
from repro.core.config import FinePackConfig, addressable_window
from repro.sim.paradigms import FinePackParadigm, make_paradigm
from repro.sim.system import MultiGPUSystem
from repro.workloads import default_suite

SUBHEADER_BYTES = (2, 3, 4, 5, 6)


def _sweep():
    speedups: dict[str, dict[int, float]] = {}
    for workload in default_suite():
        trace = workload.generate_trace(n_gpus=4, iterations=2, seed=7)
        single = workload.generate_trace(n_gpus=1, iterations=2, seed=7)
        t1 = (
            MultiGPUSystem.build(n_gpus=1)
            .run(single, make_paradigm("infinite"))
            .total_time_ns
        )
        row = {}
        for b in SUBHEADER_BYTES:
            cfg = FinePackConfig(subheader_bytes=b)
            system = MultiGPUSystem.build(n_gpus=4, finepack_config=cfg)
            m = system.run(trace, FinePackParadigm(cfg))
            row[b] = t1 / m.total_time_ns
        speedups[workload.name] = row
    return speedups


def test_fig12_subheader_sensitivity(benchmark, emit):
    speedups = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    geo = {
        b: geomean([row[b] for row in speedups.values()]) for b in SUBHEADER_BYTES
    }
    rows = [
        [name, *(row[b] for b in SUBHEADER_BYTES)] for name, row in speedups.items()
    ]
    rows.append(["GEOMEAN", *(geo[b] for b in SUBHEADER_BYTES)])
    header_note = [
        ["window"]
        + [f"{addressable_window(b):,} B" for b in SUBHEADER_BYTES]
    ]
    table = format_table(
        "Table II: addressable window per sub-header size",
        ["", *(f"{b}B" for b in SUBHEADER_BYTES)],
        header_note,
    )
    table += "\n" + format_table(
        "Figure 12: FinePack speedup vs sub-header bytes",
        ["workload", *(f"{b}B" for b in SUBHEADER_BYTES)],
        rows,
        float_fmt="{:.2f}",
    )
    emit("fig12_subheader_sweep", table)

    # --- shape assertions -------------------------------------------
    # Tiny (64 B) windows are the worst configuration.
    assert geo[2] == min(geo.values())
    # The maximum sits at 4-5 bytes ...
    best = max(geo, key=geo.get)
    assert best in (4, 5)
    # ... with virtually no change between 4 and 5 ...
    assert abs(geo[4] - geo[5]) / geo[5] < 0.07
    # ... and no improvement from growing the header beyond 5.
    assert geo[6] <= geo[5] * 1.01
