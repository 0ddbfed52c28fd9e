"""FinePack de-packetizer (paper Sec. IV-B).

At the destination GPU's ingress port, a FinePack transaction is
disaggregated back into individual stores: each sub-transaction's
offset is added to the outer packet's base address and the store is
forwarded into the local memory system.  Because the L2 cannot absorb
all disaggregated stores in the cycle they arrive, the de-packetizer
buffers them in a 64-entry x 128 B ingress buffer that drains at the
local memory write bandwidth.

Admission has one rule, :meth:`Depacketizer.admit_one`, over a
packet's buffer entries, data bytes and arrival time; a packet's
entries follow from its sub-transaction count and data bytes
(:meth:`Depacketizer.entries`), both columns of a
:class:`~repro.perf.batch.MessageBatch`.  The event path calls the
rule per packet row; the batch transport hands a destination's packets
over as columns (:meth:`Depacketizer.admit_columns`), which time them
in array passes whenever no packet can find the buffer full, and
otherwise run the rule row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import FinePackConfig
from .packet import FinePackPacket


@dataclass(frozen=True, slots=True)
class DisaggregatedStore:
    """One store recovered from a FinePack packet."""

    addr: int
    size: int
    data: bytes | None = None


@dataclass
class Depacketizer:
    """Receiver-side disaggregation with a bounded ingress buffer.

    Parameters
    ----------
    config:
        Must match the sender's configuration (sub-header geometry is a
        link-level agreement).
    buffer_entries:
        Ingress buffer capacity in 128 B entries (paper: 64).
    drain_bytes_per_ns:
        Local memory write bandwidth draining the buffer.
    """

    config: FinePackConfig
    buffer_entries: int = 64
    drain_bytes_per_ns: float = 900.0
    #: (drain_completion_time, entries) of in-flight buffered packets.
    _occupancy: list[tuple[float, int]] = field(default_factory=list)

    def buffer_bytes(self) -> int:
        return self.buffer_entries * self.config.entry_bytes

    def disaggregate(self, packet: FinePackPacket) -> list[DisaggregatedStore]:
        """Split a packet into individual stores (address reconstruction)."""
        return [
            DisaggregatedStore(addr=a, size=n, data=d) for a, n, d in packet.stores()
        ]

    def decode_wire_payload(
        self, base_addr: int, raw: bytes
    ) -> list[DisaggregatedStore]:
        """Full receive path: parse raw payload bytes, then disaggregate."""
        packet = FinePackPacket.decode_payload(base_addr, raw, self.config)
        return self.disaggregate(packet)

    def entries(
        self, subs: int | np.ndarray, data_bytes: int | np.ndarray
    ) -> np.ndarray:
        """Buffer entries of packets with ``subs`` sub-transactions and
        ``data_bytes`` of data (ints or int64 columns): the inner
        payload, sub-headers plus data, in ``entry_bytes`` units, at
        least one."""
        inner = subs * self.config.subheader_bytes + data_bytes
        return np.maximum(1, -(-inner // self.config.entry_bytes))

    def admit_one(self, entries_needed: int, data_bytes: int, arrival: float) -> float:
        """The admission rule: returns when the packet is drained.

        Packets still draining at ``arrival`` hold their entries.  If
        the buffer cannot take ``entries_needed`` more, admission waits
        for the earliest-draining packets (this back-pressure feeds the
        link-level credit model); the packet then drains at the local
        write rate.
        """
        if entries_needed > self.buffer_entries:
            raise ValueError(
                f"packet needs {entries_needed} buffer entries, "
                f"capacity is {self.buffer_entries}"
            )
        self._occupancy = [(t, n) for t, n in self._occupancy if t > arrival]
        pending = sorted(self._occupancy)
        occupied = sum(n for _, n in pending)
        start = arrival
        i = 0
        while occupied + entries_needed > self.buffer_entries:
            t, n = pending[i]
            start = max(start, t)
            occupied -= n
            i += 1
        drain_done = start + data_bytes / self.drain_bytes_per_ns
        self._occupancy.append((drain_done, entries_needed))
        return drain_done

    def admit_columns(
        self, arrival: np.ndarray, entries: np.ndarray, data_bytes: np.ndarray
    ) -> np.ndarray:
        """:meth:`admit_one` for each row in order; returns the drain
        times and leaves the buffer state exactly as the row loop would.

        When arrivals never decrease, a packet ``j`` admitted at ``a_j``
        without waiting drains at ``d_j = a_j + b_j / rate`` and is in
        flight for the rows whose arrival is below ``d_j`` (pruning is
        then cumulative).  One ``searchsorted`` of the drains, and of
        the carried packets' drains, into the arrivals plus a
        difference-array ``cumsum`` counts every row's in-flight
        entries (unless all packets fit the buffer at once); if none
        exceeds ``buffer_entries - entries``, no row waits and those
        drains are the rule's.  Any other stream runs the rule row by
        row.
        """
        n = int(arrival.size)
        if n and (arrival[1:] >= arrival[:-1]).all():
            done = arrival + data_bytes / self.drain_bytes_per_ns
            carried = self._occupancy
            held = sum(c for _, c in carried)
            # When every packet fits at once, none can wait.
            fits = held + int(entries.sum()) <= self.buffer_entries
            if not fits and int(entries.max()) <= self.buffer_entries:
                # Row j holds its entries from row j + 1 up to the first
                # arrival at or past its drain, a carried packet from
                # row 0 up to the first arrival at or past its drain: a
                # difference array over the rows.
                ends = np.searchsorted(
                    arrival,
                    np.concatenate((done, [t for t, _ in carried])),
                    side="left",
                )
                rows = np.arange(1, n + 1)
                np.maximum(ends[:n], rows, out=ends[:n])
                diff = np.bincount(
                    np.concatenate((rows, ends)),
                    np.concatenate((entries, -entries, [-c for _, c in carried])),
                    n + 1,
                )
                diff[0] += held
                fits = bool(
                    (np.cumsum(diff[:n]) + entries <= self.buffer_entries).all()
                )
            if fits:
                # The state after the last row: every packet still
                # draining at its arrival, then that row itself.
                last = float(arrival[-1])
                live = done > last
                live[-1] = True
                kept = np.flatnonzero(live)
                self._occupancy = [(t, c) for t, c in carried if t > last]
                self._occupancy += zip(done[kept].tolist(), entries[kept].tolist())
                return done
        return np.array(
            [
                self.admit_one(e, b, a)
                for a, e, b in zip(
                    arrival.tolist(), entries.tolist(), data_bytes.tolist()
                )
            ],
            dtype=np.float64,
        )
