"""Figure 9: 4-GPU speedups over a single GPU for each paradigm.

Shape targets from the paper: infinite bandwidth exposes a ~3.4x
geomean opportunity; FinePack lands around 2.4x, capturing ~71% of it;
bulk DMA sits between FinePack and raw P2P stores in aggregate; raw
P2P stores suffer net slowdowns on the irregular applications while
matching FinePack on the regular ones.
"""

from repro.analysis import format_speedup_table, format_table, geomean

PARADIGMS = ("p2p", "dma", "finepack", "infinite")


def test_fig09_speedups(benchmark, suite_results, emit):
    speedups = benchmark.pedantic(
        lambda: {
            name: {p: r[p].speedup for p in PARADIGMS}
            for name, r in suite_results.items()
        },
        rounds=1,
        iterations=1,
    )

    table = format_speedup_table("Figure 9: 4-GPU speedup over 1 GPU", speedups)
    geo = {p: geomean([row[p] for row in speedups.values()]) for p in PARADIGMS}
    table += "\n" + format_table(
        "geometric means",
        ["paradigm", "speedup", "paper"],
        [
            ["p2p", geo["p2p"], "~0.8"],
            ["dma", geo["dma"], "~1.7"],
            ["finepack", geo["finepack"], "~2.4"],
            ["infinite", geo["infinite"], "~3.4"],
        ],
        float_fmt="{:.2f}",
    )
    captured = geo["finepack"] / geo["infinite"]
    table += f"\nFinePack captures {captured:.0%} of the opportunity (paper: 71%)."
    emit("fig09_speedups", table)

    # --- shape assertions -------------------------------------------
    # Aggregate ordering: p2p-ish low, dma middle, finepack high, inf top.
    assert geo["dma"] < geo["finepack"] < geo["infinite"]
    assert geo["finepack"] > 1.4 * geo["dma"] * 0.8  # FP ~1.4x over DMA
    assert 0.55 < captured < 0.95

    # Regular apps: P2P already scales; FinePack matches it.
    for name in ("jacobi", "diffusion", "eqwp"):
        assert speedups[name]["p2p"] > 2.5, name
        assert abs(speedups[name]["finepack"] - speedups[name]["p2p"]) < 0.3

    # Irregular apps: P2P is a net slowdown or near it; FinePack recovers.
    for name in ("pagerank", "sssp"):
        assert speedups[name]["p2p"] < 1.0, name
        assert speedups[name]["finepack"] > 2.0 * speedups[name]["p2p"], name

    # Every paradigm stays within the infinite-bandwidth envelope.
    for name, row in speedups.items():
        for p in ("p2p", "dma", "finepack"):
            assert row[p] <= row["infinite"] * 1.01, (name, p)
