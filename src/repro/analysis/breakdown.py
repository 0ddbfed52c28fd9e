"""Byte-breakdown analysis helpers (paper Figure 10).

Each helper takes one workload's runs as ``{paradigm: RunMetrics}``,
the shape :func:`repro.sim.render_comparison` takes too.
"""

from __future__ import annotations

from typing import Mapping

from ..sim.metrics import RunMetrics


def geomean(values: list[float]) -> float:
    """Geometric mean (the paper's cross-workload aggregate)."""
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values}")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def bytes_normalized_to(
    runs: Mapping[str, RunMetrics], reference: str = "dma"
) -> dict[str, dict[str, float]]:
    """Byte breakdowns normalized to a reference paradigm (Figure 10)."""
    ref_total = runs[reference].bytes.total
    if ref_total == 0:
        raise ValueError(f"reference paradigm {reference!r} moved no bytes")
    out: dict[str, dict[str, float]] = {}
    for name, run in runs.items():
        b = run.bytes
        out[name] = {
            "useful": b.useful / ref_total,
            "protocol_overhead": b.overhead / ref_total,
            "wasted": b.wasted / ref_total,
            "total": b.total / ref_total,
        }
    return out


def breakdown_rows(
    runs: Mapping[str, RunMetrics], reference: str = "dma"
) -> list[list[object]]:
    """Figure 10 rows for one workload: byte categories normalized to
    the bulk-DMA paradigm's total."""
    norm = bytes_normalized_to(runs, reference)
    rows = []
    for paradigm, cats in norm.items():
        if paradigm == "infinite":
            continue
        rows.append(
            [
                runs[paradigm].workload,
                paradigm,
                cats["useful"],
                cats["protocol_overhead"],
                cats["wasted"],
                cats["total"],
            ]
        )
    return rows


def data_reduction_factors(runs: Mapping[str, RunMetrics]) -> dict[str, float]:
    """FinePack's wire-byte reduction vs the baselines (the paper's
    headline '2.7x less data than P2P, 1.3x less than DMA')."""
    fp = runs["finepack"].wire_bytes
    out = {}
    for name in ("p2p", "dma", "wc"):
        if name in runs and fp:
            out[name] = runs[name].wire_bytes / fp
    return out


def wasted_fraction(metrics: RunMetrics) -> float:
    """Share of on-wire bytes that were wasted (redundant or unread)."""
    return metrics.bytes.wasted / metrics.bytes.total if metrics.bytes.total else 0.0
