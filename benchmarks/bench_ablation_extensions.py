"""Ablations of the paper's optional/extension designs.

Three design points the paper discusses but does not evaluate:

* **Inactivity-timeout flush** (Sec. IV-B): the paper argues flushing
  only on full/miss/release already keeps the link busy; the ablation
  confirms a timeout changes little at sane values and hurts packing
  when too aggressive.
* **Multi-window partitions** (Sec. IV-C): extra concurrent aggregation
  windows rescue workloads that thrash a single window -- CT, the
  Figure 11 outlier, is the stress case.
* **Atomic port** (Sec. IV-C): FinePack never coalesces atomics, so an
  atomicAdd-based port sees zero benefit -- quantified on PageRank.
"""

import pytest

from repro.analysis import format_table
from repro.run import RunContext, RunSpec, TraceCache, labeled_sweep
from repro.workloads import CTWorkload, PagerankWorkload, SSSPWorkload


def _timeout_sweep():
    """Drive a bursty store stream through the FinePack egress.

    The paper's motivation for the (unused) timeout is latency and
    burstiness: between bursts the queue sits on buffered data.  The
    sweep measures the tradeoff directly -- mean buffering latency
    (store issue to packet egress) vs wire bytes and packing.
    """
    import numpy as np

    from repro.core.config import FinePackConfig
    from repro.core.egress import FinePackEgress
    from repro.interconnect.pcie import PCIE_GEN4, PCIeProtocol

    base = 1 << 34
    rng = np.random.default_rng(7)
    bursts = 64
    per_burst = 16
    gap_ns = 20_000.0
    rows = []
    for timeout in (None, 100_000.0, 5_000.0, 500.0):
        engine = FinePackEgress(
            FinePackConfig(),
            PCIeProtocol(PCIE_GEN4),
            src=0,
            n_gpus=2,
            flush_timeout_ns=timeout,
        )
        pending: list[tuple[int, float]] = []  # (count, issue_time)
        latencies: list[float] = []
        wire = 0
        packets = 0

        def drain(msgs):
            nonlocal wire, packets
            for m in msgs:
                wire += m.wire_bytes
                packets += 1
                absorbed = m.meta["packet"].stores_absorbed
                taken = 0
                while pending and taken < absorbed:
                    count, t0 = pending.pop(0)
                    take = min(count, absorbed - taken)
                    latencies.extend([m.issue_time - t0] * take)
                    taken += take
                    if take < count:
                        pending.insert(0, (count - take, t0))

        t = 0.0
        for _ in range(bursts):
            for _ in range(per_burst):
                addr = base + int(rng.integers(0, 1 << 14)) * 8
                pending.append((1, t))
                drain(engine.on_store(addr, 8, 1, t))
                t += 20.0
            t += gap_ns
        drain(engine.on_release(t))
        rows.append(
            [
                "off" if timeout is None else f"{timeout/1e3:.1f}us",
                float(np.mean(latencies)) / 1e3,
                wire / 1e3,
                (bursts * per_burst) / packets,
            ]
        )
    return rows


def _window_sweep():
    base = RunSpec.for_workload(CTWorkload(), n_gpus=4, iterations=2, seed=7)
    cache = TraceCache()
    rows = []
    for windows in (1, 2, 4, 8):
        spec = base.with_options(paradigm_params={"windows": windows})
        m = RunContext(spec, cache).run()
        rows.append(
            [
                windows,
                m.total_time_ns / 1e3,
                m.wire_bytes / 1e6,
                m.packets.mean_stores_per_packet,
            ]
        )
    return rows


def test_ablation_timeout_flush(benchmark, emit):
    rows = benchmark.pedantic(_timeout_sweep, rounds=1, iterations=1)
    emit(
        "ablation_timeout",
        format_table(
            "Sec. IV-B ablation: inactivity-timeout flush "
            "(bursty synthetic stream, 16-store bursts / 20us gaps)",
            ["timeout", "mean_latency_us", "wire_kB", "stores/pkt"],
            rows,
            float_fmt="{:.1f}",
        ),
    )
    by = {r[0]: r for r in rows}
    # An aggressive timeout slashes buffering latency ...
    assert by["0.5us"][1] < 0.25 * by["off"][1]
    # ... at the cost of fragmented packets and more wire bytes
    # (why the paper leaves the timeout off to maximize coalescing).
    assert by["0.5us"][3] < by["off"][3]
    assert by["0.5us"][2] > by["off"][2]
    # A generous timeout barely changes the wire traffic.
    assert by["100.0us"][2] <= by["off"][2] * 1.05


def test_ablation_multi_window(benchmark, emit):
    rows = benchmark.pedantic(_window_sweep, rounds=1, iterations=1)
    emit(
        "ablation_multiwindow",
        format_table(
            "Sec. IV-C ablation: concurrent aggregation windows (ct)",
            ["windows", "time_us", "wire_MB", "stores/pkt"],
            rows,
            float_fmt="{:.1f}",
        ),
    )
    by = {r[0]: r for r in rows}
    # CT thrashes one window; more windows recover packing and bytes.
    assert by[4][3] > 1.5 * by[1][3]
    assert by[4][2] < by[1][2]


def test_ablation_atomic_port(benchmark, emit):
    def run():
        out = {}
        for use_atomics in (False, True):
            base = RunSpec.for_workload(
                PagerankWorkload(n=40_000, use_atomics=use_atomics), iterations=2
            )
            res = labeled_sweep(
                {p: base.with_options(paradigm=p) for p in ("p2p", "finepack")}
            ).result.by_label()
            out["atomicAdd port" if use_atomics else "store port"] = (
                res["p2p"].speedup,
                res["finepack"].speedup,
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[k, v[0], v[1]] for k, v in results.items()]
    emit(
        "ablation_atomics",
        format_table(
            "Sec. IV-C ablation: store port vs atomic port (pagerank)",
            ["port", "p2p speedup", "finepack speedup"],
            rows,
            float_fmt="{:.2f}",
        ),
    )
    store_gain = results["store port"][1] / results["store port"][0]
    atomic_gain = results["atomicAdd port"][1] / results["atomicAdd port"][0]
    # FinePack helps the store port substantially, the atomic port not at all.
    assert store_gain > 1.5
    assert atomic_gain == pytest.approx(1.0, rel=0.02)
