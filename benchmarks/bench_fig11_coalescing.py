"""Figure 11: average stores aggregated into one FinePack packet.

Shape targets from the paper: tens of stores per packet on average
(the paper reports a 42-store mean), with CT the clear outlier -- its
ray-interleaved corrections have minimal spatial locality, so packets
carry only a handful of stores.
"""

import numpy as np

from repro.analysis import format_table


def test_fig11_stores_per_packet(benchmark, suite_results, emit):
    per_workload = benchmark.pedantic(
        lambda: {
            name: res["finepack"].metrics.packets.mean_stores_per_packet
            for name, res in suite_results.items()
        },
        rounds=1,
        iterations=1,
    )

    mean = float(np.mean(list(per_workload.values())))
    rows = [[name, v] for name, v in per_workload.items()]
    rows.append(["MEAN", mean])
    emit(
        "fig11_coalescing",
        format_table(
            "Figure 11: stores aggregated per FinePack packet (paper mean: 42)",
            ["workload", "stores/packet"],
            rows,
            float_fmt="{:.1f}",
        ),
    )

    # Suite mean in the tens of stores.
    assert 20 <= mean <= 90
    # CT is the low outlier.
    ct = per_workload["ct"]
    assert ct == min(per_workload.values())
    assert ct < 10
    # Everyone else achieves real aggregation.
    for name, v in per_workload.items():
        if name != "ct":
            assert v > 15, name
