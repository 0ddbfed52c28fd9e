"""Byte-accounting ledger and run metrics (paper Figure 10/11 inputs).

Every payload byte that crosses the interconnect is classified as

* **useful** -- it carries a final value (not later overwritten before
  the consumer synchronizes) that the destination GPU actually reads;
* **wasted (redundant)** -- a value overwritten by a later store to the
  same address before the consumer could read it;
* **wasted (unread)** -- delivered but never read by the destination
  (over-transfer: untouched bytes in a DMA region or a GPS cacheline);
* protocol **overhead** bytes are accounted separately from payload.

Classification is interval arithmetic: delivered ranges vs. the
producer's final-value footprint (:func:`pair_footprint`) vs. the
consumer's read set (:func:`useful_bytes`).  Both DES loops classify
through :func:`classify_egress`, and the analytical tier applies the
same footprint, useful-byte rule and :meth:`ByteBreakdown.record` to
its predicted delivered ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..interconnect.message import MessageKind, WireMessage
from ..perf.batch import MessageBatch
from ..trace.intervals import IntervalSet


@dataclass
class ByteBreakdown:
    """The Figure 10 byte categories."""

    useful: int = 0
    wasted_redundant: int = 0
    wasted_unread: int = 0
    overhead: int = 0

    @property
    def wasted(self) -> int:
        return self.wasted_redundant + self.wasted_unread

    @property
    def payload(self) -> int:
        return self.useful + self.wasted

    @property
    def total(self) -> int:
        return self.payload + self.overhead

    def record(self, payload: int, overhead: int, unique: int, useful: int) -> None:
        """Fold in one (src, dst) pair: ``payload`` bytes shipped,
        ``unique`` of them distinct, ``useful`` of those written and
        read.  The rest of the distinct bytes are unread, the repeats
        redundant."""
        self.useful += useful
        self.wasted_redundant += payload - unique
        self.wasted_unread += unique - useful
        self.overhead += overhead

    def add(self, other: "ByteBreakdown") -> None:
        self.useful += other.useful
        self.wasted_redundant += other.wasted_redundant
        self.wasted_unread += other.wasted_unread
        self.overhead += other.overhead

    def as_dict(self) -> dict[str, int]:
        return {
            "useful": self.useful,
            "wasted_redundant": self.wasted_redundant,
            "wasted_unread": self.wasted_unread,
            "overhead": self.overhead,
            "total": self.total,
        }


def pair_footprint(phase, dst: int) -> IntervalSet:
    """The bytes ``phase``'s GPU genuinely wrote for ``dst``.

    That is its store and atomic footprint, plus any
    software-aggregated DMA staging buffer, which the producer writes
    in full.  Delivered bytes outside it were never updated (DMA/GPS
    over-transfer).
    """
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


def useful_bytes(
    delivered: IntervalSet, footprint: IntervalSet, reads: IntervalSet
) -> int:
    """Delivered ∩ written ∩ read: the Figure 10 useful bytes."""
    return delivered.intersect(footprint).intersect(reads).total_bytes


def classify_egress(
    outputs: list,
    phases,
    consumer_reads: dict[int, IntervalSet],
    dropped: set[int] | frozenset = frozenset(),
) -> ByteBreakdown:
    """Classify one iteration's delivered bytes, (src, dst) pair by pair.

    ``outputs`` holds each phase's egress: a :class:`MessageBatch`, or
    a list of :class:`WireMessage` each annotated with
    ``meta["range1"]`` (one ``(addr, size)``) or ``meta["ranges"]``
    (``(starts, lengths)`` arrays).  Messages whose ``id()`` is in
    ``dropped`` never arrived and are not counted.  A pair's delivered
    ranges are classified against ``pair_footprint(phases[src], dst)``
    and the destination's ``consumer_reads``.
    """
    # Per-pair accumulators: [array-range starts, array-range lengths,
    # scalar starts, scalar lengths, payload, overhead].  Range order
    # inside a pair is irrelevant (interval union and int sums), so
    # batch segments and scalar messages mix freely.
    pair_acc: dict[tuple[int, int], list] = {}
    for item in outputs:
        if isinstance(item, MessageBatch):
            for d in np.unique(item.dst).tolist():
                idx = np.flatnonzero(item.dst == d)
                acc = pair_acc.setdefault((item.src, d), [[], [], [], [], 0, 0])
                acc[0].append(item.starts[idx])
                acc[1].append(item.lengths[idx])
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
                pair_footprint(phases[src], dst),
                consumer_reads.get(dst, IntervalSet.empty()),
            ),
        )
    return breakdown


@dataclass
class PacketStats:
    """Aggregated packet statistics (Figure 11 input)."""

    messages: int = 0
    stores_carried: int = 0
    by_kind: dict[MessageKind, int] = field(default_factory=dict)
    #: stores_packed of each data-carrying message, for distributions.
    packed_counts: list[int] = field(default_factory=list)

    def record(self, msg: WireMessage) -> None:
        self.messages += 1
        self.stores_carried += msg.stores_packed
        self.by_kind[msg.kind] = self.by_kind.get(msg.kind, 0) + 1
        if msg.kind in (MessageKind.FINEPACK, MessageKind.STORE, MessageKind.COMBINED_STORE):
            self.packed_counts.append(msg.stores_packed)

    @property
    def mean_stores_per_packet(self) -> float:
        if not self.packed_counts:
            return 0.0
        return float(np.mean(self.packed_counts))


@dataclass
class FaultAccounting:
    """Fault/replay/resilience roll-up for one run.

    Aggregated from every link's :class:`~repro.interconnect.link.
    LinkStats` plus the topology's rerouting counter and the system's
    drop ledger; all zeros for a healthy run.
    """

    replays: int = 0
    replay_bytes: int = 0
    replay_saturations: int = 0
    retransmits: int = 0
    fault_stall_ns: float = 0.0
    rerouted_messages: int = 0
    dropped_messages: int = 0
    dropped_bytes: int = 0

    @property
    def any(self) -> bool:
        """Whether the fabric misbehaved at all during the run."""
        return bool(
            self.replays
            or self.retransmits
            or self.fault_stall_ns
            or self.rerouted_messages
            or self.dropped_messages
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "replays": self.replays,
            "replay_bytes": self.replay_bytes,
            "replay_saturations": self.replay_saturations,
            "retransmits": self.retransmits,
            "fault_stall_ns": self.fault_stall_ns,
            "rerouted_messages": self.rerouted_messages,
            "dropped_messages": self.dropped_messages,
            "dropped_bytes": self.dropped_bytes,
        }


@dataclass
class LinkUtilization:
    """Busy-time fraction of each interconnect link over the run."""

    by_link: dict[str, float] = field(default_factory=dict)

    @property
    def peak(self) -> float:
        return max(self.by_link.values(), default=0.0)

    @property
    def mean(self) -> float:
        if not self.by_link:
            return 0.0
        return sum(self.by_link.values()) / len(self.by_link)

    def gpu_egress(self) -> dict[str, float]:
        """Utilization of the GPU upstream links only."""
        return {k: v for k, v in self.by_link.items() if k.startswith("gpu")}


@dataclass
class RunMetrics:
    """Everything measured in one (workload, paradigm) simulation."""

    workload: str
    paradigm: str
    n_gpus: int
    total_time_ns: float = 0.0
    iteration_times_ns: list[float] = field(default_factory=list)
    compute_time_ns: float = 0.0
    bytes: ByteBreakdown = field(default_factory=ByteBreakdown)
    packets: PacketStats = field(default_factory=PacketStats)
    links: LinkUtilization = field(default_factory=LinkUtilization)
    faults: FaultAccounting = field(default_factory=FaultAccounting)
    #: Per-link traffic/fault counters (``link -> summary dict``); see
    #: :meth:`MultiGPUSystem.run` for the keys.
    link_stats: dict[str, dict] = field(default_factory=dict)
    #: True when the run ended in graceful degradation (the metrics are
    #: partial: accumulated up to the degraded iteration).
    degraded: bool = False

    # Which model produced these metrics: "des" (the event simulator)
    # or "analytical" (repro.analytical's closed-form predictions).
    # Deliberately an *unannotated* class attribute, not a dataclass
    # field: the analytical tier overrides it per instance (surviving
    # pickling via __dict__) without perturbing dataclass equality or
    # the golden fingerprint canonicalization, which iterate fields.
    fidelity = "des"

    @property
    def wire_bytes(self) -> int:
        return self.bytes.total

    @property
    def goodput(self) -> float:
        return self.bytes.payload / self.bytes.total if self.bytes.total else 0.0

    @property
    def efficiency(self) -> float:
        """Useful fraction of all bytes on the wire."""
        return self.bytes.useful / self.bytes.total if self.bytes.total else 0.0

    def summary(self) -> dict[str, float]:
        out = {
            "workload": self.workload,
            "paradigm": self.paradigm,
            "n_gpus": self.n_gpus,
            "total_time_ms": self.total_time_ns / 1e6,
            "wire_MB": self.bytes.total / 1e6,
            "useful_MB": self.bytes.useful / 1e6,
            "goodput": round(self.goodput, 4),
            "efficiency": round(self.efficiency, 4),
            "stores_per_packet": round(self.packets.mean_stores_per_packet, 2),
        }
        if self.faults.any:
            f = self.faults
            out["replays"] = f.replays
            out["retransmits"] = f.retransmits
            out["rerouted"] = f.rerouted_messages
            out["dropped"] = f.dropped_messages
            out["fault_stall_ms"] = round(f.fault_stall_ns / 1e6, 4)
        if self.degraded:
            out["degraded"] = True
        if self.fidelity != "des":
            out["fidelity"] = self.fidelity
        return out
