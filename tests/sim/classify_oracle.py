"""Reference byte classifier: one (src, dst) pair at a time.

This is the per-pair form of :func:`repro.sim.metrics.classify_egress`
that the grouped vectorized pass replaced, kept as the oracle of the
differential test.  It states the footprint rule on its own (stores,
atomics and aggregated DMA staging, per destination) rather than
through :func:`repro.sim.metrics.pair_footprint`, so the test also
checks that rule.
"""

from __future__ import annotations

import numpy as np

from repro.perf.batch import MessageBatch
from repro.sim.metrics import ByteBreakdown, useful_bytes
from repro.trace.intervals import IntervalSet


def pair_footprint_oracle(phase, dst: int) -> IntervalSet:
    """Stores ∪ atomics ∪ aggregated DMA staging of ``phase`` for ``dst``."""
    footprint = phase.stores.for_dst(dst).footprint()
    if phase.atomics.count:
        footprint = footprint.union(phase.atomics.for_dst(dst).footprint())
    staged = [tr for tr in phase.dma if tr.dst == dst and tr.aggregated]
    if staged:
        footprint = footprint.union(
            IntervalSet.from_ranges(
                [tr.dst_addr for tr in staged],
                [tr.nbytes for tr in staged],
            )
        )
    return footprint


def classify_per_pair(
    outputs: list,
    phases,
    consumer_reads: dict[int, IntervalSet],
    dropped: set[int] | frozenset = frozenset(),
) -> ByteBreakdown:
    """Classify one iteration's delivered bytes, (src, dst) pair by pair."""
    # Per-pair accumulators: [array-range starts, array-range lengths,
    # scalar starts, scalar lengths, payload, overhead].
    pair_acc: dict[tuple[int, int], list] = {}
    for item in outputs:
        if isinstance(item, MessageBatch):
            # Each range's message's destination (one range a message
            # unless the batch gives range counts).
            range_dst = (
                item.dst if item.counts is None else np.repeat(item.dst, item.counts)
            )
            for d in np.unique(item.dst).tolist():
                idx = np.flatnonzero(item.dst == d)
                ranges = np.flatnonzero(range_dst == d)
                acc = pair_acc.setdefault((item.src, d), [[], [], [], [], 0, 0])
                acc[0].append(item.starts[ranges])
                acc[1].append(item.lengths[ranges])
                acc[4] += int(item.payload[idx].sum())
                acc[5] += int(item.overhead[idx].sum())
            continue
        for m in item:
            if dropped and id(m) in dropped:
                continue
            acc = pair_acc.setdefault((m.src, m.dst), [[], [], [], [], 0, 0])
            acc[4] += m.payload_bytes
            acc[5] += m.overhead_bytes
            single = m.meta.get("range1")
            if single is not None:
                acc[2].append(single[0])
                acc[3].append(single[1])
                continue
            ranges = m.meta.get("ranges")
            if ranges is None:
                raise ValueError(f"message {m} lacks range annotations")
            acc[0].append(np.asarray(ranges[0], dtype=np.int64))
            acc[1].append(np.asarray(ranges[1], dtype=np.int64))
    breakdown = ByteBreakdown()
    for (src, dst), (sp, lp, ss, sl, payload, overhead) in pair_acc.items():
        if ss:
            sp.append(np.asarray(ss, dtype=np.int64))
            lp.append(np.asarray(sl, dtype=np.int64))
        lens = np.concatenate(lp)
        declared = int(lens.sum())
        if declared != payload:
            raise ValueError(
                f"range annotations cover {declared} B but messages claim "
                f"{payload} B of payload"
            )
        delivered = IntervalSet.from_ranges(np.concatenate(sp), lens)
        breakdown.record(
            payload,
            overhead,
            delivered.total_bytes,
            useful_bytes(
                delivered,
                pair_footprint_oracle(phases[src], dst),
                consumer_reads.get(dst, IntervalSet.empty()),
            ),
        )
    return breakdown
