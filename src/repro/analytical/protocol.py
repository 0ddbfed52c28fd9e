"""Closed-form per-paradigm protocol cost models.

Each function predicts the wire traffic one (source phase, destination)
pair generates under a paradigm: payload and overhead bytes, message
counts by kind, packing statistics, and the union of delivered byte
ranges.  The model layer classifies that union against the DES's own
written-and-read sets (:func:`repro.sim.metrics.written_and_read`);
parameters such as sector size and slice count come from the built DES
paradigm.

Exactness contract (derivations in ``docs/analytical.md``):

* ``p2p``, ``dma``, ``dma_sliced``, ``infinite`` -- *exact*: their
  byte accounting is a pure function of op sizes and transfer regions.
* ``finepack`` -- exact when a destination's stream packs into a
  single packet (one flush epoch); otherwise a first-order epoch model
  (payload-capacity / queue-entry / window-segment / atomic-conflict
  flush causes) with duplicate-delivery and sub-header scaling.  Its
  optional flush timeout and multi-window partitions have no model;
  :func:`~repro.analytical.predict_metrics` rejects them.
* ``wc``/``gps`` -- line-run model of the final footprint; FIFO
  eviction re-flushes and atomic line splits are neglected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import FinePackConfig
from ..interconnect.message import MessageKind
from ..interconnect.pcie import DW_BYTES, PCIeProtocol
from ..trace.intervals import IntervalSet
from .stats import DstOps, overlap_count, sector_expand


@dataclass
class PairCost:
    """Predicted wire traffic for one (src, dst, iteration) pair."""

    payload: int = 0
    overhead: int = 0
    messages: int = 0
    #: Sum of ``stores_packed`` over every message (atomics included).
    stores_carried: int = 0
    by_kind: dict[MessageKind, int] = field(default_factory=dict)
    #: Messages of the packed kinds (STORE/COMBINED_STORE/FINEPACK)
    #: and the stores they absorb -- the Figure 11 statistic.
    packed_messages: int = 0
    packed_stores: int = 0
    #: Union of delivered byte ranges (classification input).
    delivered: IntervalSet = field(default_factory=IntervalSet.empty)

    @property
    def wire_bytes(self) -> int:
        return self.payload + self.overhead

    def _count(self, kind: MessageKind, n: int) -> None:
        if n:
            self.by_kind[kind] = self.by_kind.get(kind, 0) + n


def _add_atomics(
    cost: PairCost, protocol: PCIeProtocol, atomics: DstOps | None
) -> None:
    """Atomics are never coalesced: one ATOMIC TLP each, exactly."""
    if atomics is None or atomics.count == 0:
        return
    total = atomics.total_bytes
    cost.payload += total
    cost.overhead += atomics.count * protocol.per_tlp_overhead + (
        atomics.padded_bytes - total
    )
    cost.messages += atomics.count
    cost.stores_carried += atomics.count
    cost._count(MessageKind.ATOMIC, atomics.count)
    cost.delivered = cost.delivered.union(atomics.footprint)


def p2p_cost(
    protocol: PCIeProtocol, stores: DstOps | None, atomics: DstOps | None
) -> PairCost:
    """Fine-grained p2p: one posted memory-write TLP per store. Exact."""
    cost = PairCost()
    if stores is not None and stores.count:
        total = stores.total_bytes
        cost.payload = total
        cost.overhead = stores.count * protocol.per_tlp_overhead + (
            stores.padded_bytes - total
        )
        cost.messages = stores.count
        cost.stores_carried = stores.count
        cost.packed_messages = stores.count
        cost.packed_stores = stores.count
        cost._count(MessageKind.STORE, stores.count)
        cost.delivered = stores.footprint
    _add_atomics(cost, protocol, atomics)
    return cost


def wc_cost(
    protocol: PCIeProtocol,
    stores: DstOps | None,
    atomics: DstOps | None,
    line_bytes: int = 128,
    sector_bytes: int = 1,
) -> PairCost:
    """Write-combining buffers: one COMBINED_STORE TLP per maximal run
    of dirty (sector-expanded) bytes in each flushed line.

    First-order: assumes each touched line is flushed once with its
    final byte-enable mask (FIFO eviction of a line that is later
    re-dirtied, and the early flush an atomic forces on its own line,
    are neglected -- both only *split* runs, adding per-TLP overhead).
    """
    cost = PairCost()
    if stores is not None and stores.count:
        delivered = sector_expand(stores.footprint, sector_bytes)
        geo = (
            stores.geometry(line_bytes)
            if sector_bytes == 1
            else _expanded_geometry(delivered, line_bytes)
        )
        cost.payload = delivered.total_bytes
        cost.overhead = geo.runs * protocol.per_tlp_overhead + geo.pad_bytes
        cost.messages = geo.runs
        cost.stores_carried = stores.count
        cost.packed_messages = geo.runs
        cost.packed_stores = stores.count
        cost._count(MessageKind.COMBINED_STORE, geo.runs)
        cost.delivered = delivered
    _add_atomics(cost, protocol, atomics)
    return cost


def _expanded_geometry(delivered: IntervalSet, line_bytes: int):
    from .stats import line_geometry

    return line_geometry(delivered, line_bytes)


def finepack_cost(
    config: FinePackConfig,
    protocol: PCIeProtocol,
    stores: DstOps | None,
    atomics: DstOps | None,
) -> PairCost:
    """FinePack packing: remote-write-queue flush epochs in closed form.

    Let ``S`` = raw store bytes, ``U`` = footprint bytes, ``R`` = line
    runs of the footprint, ``n`` the op count.  Flushing partitions the
    issue stream into ``F`` *epochs*; what each epoch re-buffers,
    re-splits and re-ships depends on how far apart (in issue order)
    related ops are, which the :class:`~repro.analytical.stats
    .PackProfile` captures as three distance distributions.  With a
    uniform epoch boundary model -- two ops ``d`` apart straddle a
    boundary with probability ``min(1, d/span)`` for epoch length
    ``span = n/F`` -- the expectations are:

    * entry allocations ``A(F)``: an op allocates a queue entry unless
      a previous op touched its line *within the epoch*;
    * sub-transactions ``subs(F)``: every (op x spanned line) piece is
      a sub-transaction unless a byte-adjacent or same-address
      predecessor in the same epoch absorbs it;
    * shipped payload ``payload(F)``: ``U`` plus the fraction of the
      ``S - U`` duplicate bytes whose re-write lands in a *different*
      epoch than the original.

    ``F`` is then the smallest count satisfying every flush cause,
    found by iterating the monotone map from the lower bound up::

        F = max(W, ceil(A(F) / E), ceil((payload(F) + h*subs(F)) / P))
            + C

    with ``W`` issue-order window segments (WINDOW_MISS), ``E``/``P``
    the entry/payload capacities (ENTRIES_FULL / PAYLOAD_FULL), ``h``
    the sub-header size and ``C`` the atomics overlapping buffered
    store bytes (ATOMIC_CONFLICT).  For ``F == 1`` every term is exact
    (payload ``U``, ``R`` sub-headers, exact DW pad); multi-epoch
    padding uses the expected 1.5 B of uniform DW phase per packet.
    """
    cost = PairCost()
    if stores is not None and stores.count:
        sub = config.subheader_bytes
        cap = config.max_payload_bytes
        entries = config.queue_entries_per_partition
        u = stores.footprint.total_bytes
        s = stores.total_bytes
        n = stores.count
        prof = stores.pack_profile(config.entry_bytes)
        conflicts = (
            overlap_count(atomics.addrs, atomics.sizes, stores.footprint)
            if atomics is not None and atomics.count
            else 0
        )
        window = stores.window_segments(config.window_bytes)
        dup = s - u
        flushes = max(window, 1)
        payload = u
        subs_est = float(prof.pieces - prof.merge.d_sorted.size)
        for _ in range(64):
            epochs = flushes + conflicts
            span = n / epochs
            allocs = prof.alloc.crossings(span)
            subs_est = prof.pieces - prof.merge.merges(span)
            if dup:
                frac = prof.dup.weighted_crossing_fraction(span)
                if frac == 0.0:
                    # Duplicates from partial overlaps only: fall back
                    # to uniform spreading over epochs.
                    frac = 1.0 - 1.0 / epochs
                payload = u + int(round(dup * frac))
            nxt = max(
                window,
                -(-int(round(allocs)) // entries),
                -(-int(round(payload + sub * subs_est)) // cap),
                1,
            )
            if nxt <= flushes:
                break
            flushes = nxt
        epochs = flushes + conflicts
        if epochs == 1:
            payload = u
            subs = stores.geometry(config.entry_bytes).runs
            pad = (-(payload + sub * subs)) % DW_BYTES
        else:
            subs = max(int(round(subs_est)), epochs)
            pad = (3 * epochs) // 2  # E[DW pad] = 1.5 B/packet
        cost.payload = payload
        cost.overhead = epochs * protocol.per_tlp_overhead + sub * subs + pad
        cost.messages = epochs
        cost.stores_carried = stores.count
        cost.packed_messages = epochs
        cost.packed_stores = stores.count
        cost._count(MessageKind.FINEPACK, epochs)
        cost.delivered = stores.footprint
    _add_atomics(cost, protocol, atomics)
    return cost


def dma_cost(
    protocol: PCIeProtocol,
    transfers: list,
    slices: int = 1,
) -> PairCost:
    """Bulk DMA: each transfer (or slice chunk) split into max-payload
    TLPs by :meth:`PCIeProtocol.bulk_transfer_cost`. Exact."""
    cost = PairCost()
    starts: list[int] = []
    lens: list[int] = []
    for tr in transfers:
        if slices <= 1:
            chunks = [tr.nbytes]
        else:
            base = tr.nbytes // slices
            chunks = [base] * (slices - 1) + [tr.nbytes - base * (slices - 1)]
        n_chunks = 0
        for chunk in chunks:
            if chunk <= 0:
                continue
            payload, overhead = protocol.bulk_transfer_cost(chunk)
            cost.payload += payload
            cost.overhead += overhead
            n_chunks += 1
        cost.messages += n_chunks
        cost._count(MessageKind.DMA_CHUNK, n_chunks)
        starts.append(tr.dst_addr)
        lens.append(tr.nbytes)
    cost.delivered = IntervalSet.from_ranges(starts, lens)
    return cost
