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
consumer's read set (:func:`useful_bytes`).  Both DES transports
classify through :func:`classify_egress`, which reads each phase's
arrived messages as one :class:`MessageBatch` and intersects their
delivered ranges with each (producer phase, destination) pair's
written-and-read set
(:func:`written_and_read`), memoized under the phase's and the reads'
content digests: a trace's paradigm cells deliver different bytes but
share every such set.  The analytical tier intersects its predicted
delivered ranges with the same memoized sets and records them with the
same :meth:`ByteBreakdown.record`.
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

    That is its stores and atomics, plus any software-aggregated DMA
    staging buffer, which the producer writes in full.  Delivered bytes
    outside it were never updated (DMA/GPS over-transfer).
    """
    stores, atomics = phase.stores, phase.atomics
    to_dst = stores.dsts == dst
    atomic_to_dst = atomics.dsts == dst
    staged = np.array(
        [(t.dst_addr, t.nbytes) for t in phase.dma if t.aggregated and t.dst == dst],
        dtype=np.int64,
    ).reshape(-1, 2)
    return IntervalSet.from_ranges(
        np.concatenate(
            (stores.addrs[to_dst], atomics.addrs[atomic_to_dst], staged[:, 0])
        ),
        np.concatenate(
            (stores.sizes[to_dst], atomics.sizes[atomic_to_dst], staged[:, 1])
        ),
    )


def useful_bytes(
    delivered: IntervalSet, footprint: IntervalSet, reads: IntervalSet
) -> int:
    """Delivered ∩ written ∩ read: the Figure 10 useful bytes."""
    return delivered.intersect(footprint).intersect(reads).total_bytes


class _WrittenRead:
    """Written-and-read sets by ``(phase digest, dst, reads digest)``.

    A FIFO bounded in bytes, not entries: a set is a few bytes on a
    collective and up to a MiB on sssp.  Each entry counts its arrays
    plus ``ENTRY_BYTES`` for its key and objects, and the oldest
    entries go once the total passes ``budget``.
    """

    ENTRY_BYTES = 1024

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self.sets: dict[tuple[bytes, int, bytes], IntervalSet] = {}

    @staticmethod
    def _cost(found: IntervalSet) -> int:
        return found.starts.nbytes + found.ends.nbytes + _WrittenRead.ENTRY_BYTES

    def get(self, phase, dst: int, reads: IntervalSet) -> IntervalSet:
        key = (phase.digest, dst, reads.digest)
        found = self.sets.get(key)
        if found is None:
            found = self.sets[key] = pair_footprint(phase, dst).intersect(reads)
            self.nbytes += self._cost(found)
            while self.nbytes > self.budget and len(self.sets) > 1:
                self.nbytes -= self._cost(self.sets.pop(next(iter(self.sets))))
        return found

    def clear(self) -> None:
        self.sets.clear()
        self.nbytes = 0


#: The process's written-and-read sets, shared by the DES and the
#: analytical tier (cleared by :func:`repro.analytical.stats.clear_memo`).
#: 8 MiB holds every set of the seed-7 des-hpc grid (4.4 MiB), of
#: des-collectives (0.6 MiB) and of the analytical design sweep (4.6 MiB).
_written_read = _WrittenRead(budget=8 << 20)


def written_and_read(phase, dst: int, reads: IntervalSet) -> IntervalSet:
    """The pair's bytes that can be useful, memoized by content.

    That is ``pair_footprint(phase, dst) ∩ reads``."""
    return _written_read.get(phase, dst, reads)


#: A grouped classification pass closes once its delivered ranges plus
#: its producers' store and atomic ops reach this many.  A 16-GPU
#: collective iteration is then one pass, and a large HPC iteration
#: splits by source, which bounds the working set.
GROUP_BUDGET = 1 << 16


def classify_egress(
    outputs: list[MessageBatch],
    phases,
    consumer_reads: dict[int, IntervalSet],
) -> ByteBreakdown:
    """Classify one iteration's delivered bytes.

    ``outputs`` holds each phase's delivered egress as a
    :class:`MessageBatch`.  Each (src, dst) pair's delivered ranges
    are classified against ``pair_footprint(phases[src], dst)`` and
    the destination's ``consumer_reads``.

    Consecutive items are classified together in one vectorized pass
    (:class:`_Group`), which closes once it holds
    :data:`GROUP_BUDGET` ranges and ops.  A source's messages must
    therefore not straddle two passes; one item per source suffices.
    """
    breakdown = ByteBreakdown()
    group = _Group()
    closed: set[int] = set()
    for item in outputs:
        srcs = group.add(item, phases)
        if not closed.isdisjoint(srcs):
            raise ValueError(
                f"sources {sorted(closed & srcs)} have egress in more than "
                "one classification pass"
            )
        if group.size >= GROUP_BUDGET:
            group.classify(phases, consumer_reads, breakdown)
            closed |= group.srcs
            group = _Group()
    if group.srcs:
        group.classify(phases, consumer_reads, breakdown)
    return breakdown


class _Group:
    """Consecutive egress items, classified in one vectorized pass.

    Every delivered range (D) and every live pair's written-and-read
    set (W, :func:`written_and_read`) gets the key ``(src·n + dst) <<
    S`` added to its address (less the smallest address seen), with
    ``n`` above every GPU id and ``2**S`` above the address span.
    Pairs then occupy disjoint, non-adjacent key ranges, so one
    :class:`IntervalSet` per set holds every pair at once, and
    ``D.total_bytes`` and ``|D ∩ W|`` are the sums of the per-pair
    answers.
    """

    def __init__(self) -> None:
        self.srcs: set[int] = set()
        #: Delivered ranges plus the producers' store and atomic ops.
        self.size = 0
        self.overhead = 0
        self.batches: list[MessageBatch] = []

    def add(self, item: MessageBatch, phases) -> set[int]:
        """Append one batch, count each new producer's store and atomic
        ops, and return the batch's sources."""
        if not len(item):
            return set()
        self.batches.append(item)
        self.overhead += int(item.overhead.sum())
        self.size += int(item.starts.size)
        if item.src not in self.srcs:
            producer = phases[item.src]
            self.size += producer.stores.count + producer.atomics.count
            self.srcs.add(item.src)
        return {item.src}

    def classify(self, phases, consumer_reads, breakdown: ByteBreakdown) -> None:
        """Fold the group's byte categories into ``breakdown``."""
        batches = self.batches
        n = 1 + max(max(self.srcs), *(int(b.dst.max()) for b in batches))
        codes = [b.src * n + b.dst for b in batches]
        d_code = np.concatenate(
            [
                code if b.counts is None else np.repeat(code, b.counts)
                for code, b in zip(codes, batches)
            ]
        )
        starts = np.concatenate([b.starts for b in batches])
        lengths = np.concatenate([b.lengths for b in batches])
        payload = np.concatenate([b.payload for b in batches])
        # Per-pair byte sums; float64 is exact below 2**53 B a pair.
        declared = np.bincount(d_code, weights=lengths, minlength=n * n)
        claimed = np.bincount(
            np.concatenate(codes), weights=payload, minlength=n * n
        )
        bad = np.flatnonzero(declared != claimed)
        if bad.size:
            raise ValueError(
                f"range annotations cover {int(declared[bad[0]])} B but "
                f"messages claim {int(claimed[bad[0]])} B of payload"
            )
        unique = useful = 0
        live = np.flatnonzero(np.bincount(d_code, minlength=n * n))
        if live.size:
            empty = IntervalSet.empty()
            # Each live pair's written-and-read set, in ascending pair
            # code order.
            sets = [
                written_and_read(
                    phases[src], dst, consumer_reads.get(dst, empty)
                )
                for src, dst in zip((live // n).tolist(), (live % n).tolist())
            ]
            w_count = [len(w) for w in sets]
            w_starts = np.concatenate([w.starts for w in sets])
            w_ends = np.concatenate([w.ends for w in sets])
            base = min(int(starts.min()), int(w_starts.min(initial=starts[0])))
            span = max(
                int((starts + lengths).max()), int(w_ends.max(initial=0))
            ) - base
            shift = span.bit_length()
            if (n * n) << shift > 1 << 63:
                raise ValueError(
                    f"classification keys overflow int64: {n * n} (src, dst) "
                    f"codes over a {span} B address span"
                )
            delivered = IntervalSet.from_ranges(
                (d_code << shift) + (starts - base), lengths
            )
            unique = delivered.total_bytes
            # Normalized pair by pair, and pairs' keys ascend.
            w_key = np.repeat(live << shift, w_count) - base
            useful = delivered.intersect(
                IntervalSet(w_key + w_starts, w_key + w_ends)
            ).total_bytes
        breakdown.record(int(payload.sum()), self.overhead, unique, useful)


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
