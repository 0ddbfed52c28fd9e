"""Figure 10: breakdown of bytes on the wire, normalized to bulk DMA.

Shape targets from the paper: bulk DMA has negligible protocol overhead
but large wasted (over-transferred) bytes on the irregular apps; raw
P2P stores move far more total data than FinePack (paper: 2.7x) with
protocol overhead the dominant waste; FinePack also moves less than
bulk DMA in aggregate (paper: 1.3x) and ~24% less than cacheline write
combining alone.
"""

from repro.analysis import (
    breakdown_rows,
    data_reduction_factors,
    format_table,
    geomean,
)


def test_fig10_byte_breakdown(benchmark, suite_results, emit):
    runs = {
        name: {p: point.metrics for p, point in res.items()}
        for name, res in suite_results.items()
    }
    rows = benchmark.pedantic(
        lambda: [r for res in runs.values() for r in breakdown_rows(res)],
        rounds=1,
        iterations=1,
    )
    table = format_table(
        "Figure 10: wire bytes normalized to bulk DMA",
        ["workload", "paradigm", "useful", "overhead", "wasted", "total"],
        rows,
    )

    reductions = {name: data_reduction_factors(res) for name, res in runs.items()}
    geo_p2p = geomean([r["p2p"] for r in reductions.values()])
    geo_dma = geomean([r["dma"] for r in reductions.values()])
    geo_wc = geomean([r["wc"] for r in reductions.values()])
    table += "\n" + format_table(
        "FinePack data-reduction factors (geomean)",
        ["vs", "factor", "paper"],
        [
            ["p2p", geo_p2p, "2.7x"],
            ["dma", geo_dma, "1.3x"],
            ["write-combining", geo_wc, "~1.24x"],
        ],
        float_fmt="{:.2f}",
    )
    emit("fig10_breakdown", table)

    # --- shape assertions -------------------------------------------
    assert geo_p2p > 1.3          # FinePack moves less than raw P2P
    assert geo_dma > 0.9          # ... and no more than bulk DMA overall
    assert geo_wc > 1.05          # ... and less than write combining alone

    by_key = {(r[0], r[1]): r for r in rows}
    for name in suite_results:
        useful, overhead, wasted, total = by_key[(name, "dma")][2:]
        # Bulk DMA: negligible protocol overhead.
        assert overhead < 0.05 * total, name
    for name in ("pagerank", "sssp", "als"):
        # Irregular apps: DMA over-transfers (wasted bytes dominate) ...
        assert by_key[(name, "dma")][4] > 0.3, name
        # ... and raw P2P pays heavy protocol overhead.
        p2p = by_key[(name, "p2p")]
        assert p2p[3] > 0.5 * p2p[2], name
    # On the heavy-redundancy app, P2P moves several times more data
    # than FinePack (paper: order-of-magnitude class gaps).
    sssp = runs["sssp"]
    assert sssp["p2p"].wire_bytes > 2.5 * sssp["finepack"].wire_bytes
