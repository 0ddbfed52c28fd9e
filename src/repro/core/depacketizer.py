"""FinePack de-packetizer (paper Sec. IV-B).

At the destination GPU's ingress port, a FinePack transaction is
disaggregated back into individual stores: each sub-transaction's
offset is added to the outer packet's base address and the store is
forwarded into the local memory system.  Because the L2 cannot absorb
all disaggregated stores in the cycle they arrive, the de-packetizer
buffers them in a 64-entry x 128 B ingress buffer that drains at the
local memory write bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def admit(self, packet: FinePackPacket, arrival: float) -> float:
        """Model buffer occupancy; returns when the packet is drained.

        If the buffer is full at ``arrival``, admission waits for prior
        packets to drain (this back-pressure feeds the link-level credit
        model).
        """
        entries_needed = max(
            1, -(-packet.inner_payload_bytes(self.config) // self.config.entry_bytes)
        )
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
        drain_done = start + packet.payload_data_bytes / self.drain_bytes_per_ns
        self._occupancy.append((drain_done, entries_needed))
        return drain_done
