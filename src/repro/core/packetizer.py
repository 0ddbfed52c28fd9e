"""FinePack packetizer (paper Sec. IV-B).

Converts a flushed remote-write-queue window into one outer FinePack
transaction: each queue entry contributes one sub-transaction per
maximal contiguous run of enabled bytes (the sub-header has no byte
enables, so non-contiguous bytes in an entry must split -- exactly the
behaviour the paper describes).
"""

from __future__ import annotations

import numpy as np

from ..interconnect.message import MessageKind, WireMessage
from ..interconnect.pcie import PCIeProtocol
from ..perf.batch import masks_to_runs
from ..perf.config import scalar_mode
from .config import FinePackConfig
from .packet import FinePackPacket, SubTransaction
from .remote_write_queue import FlushedWindow


class Packetizer:
    """Builds FinePack packets and their wire messages."""

    def __init__(self, config: FinePackConfig, protocol: PCIeProtocol) -> None:
        self.config = config
        self.protocol = protocol
        # masks_to_runs packs masks into whole bytes, so the vectorized
        # path needs byte-aligned entries (the default 128 qualifies).
        self._fast = not scalar_mode() and config.entry_bytes % 8 == 0

    def packetize(self, window: FlushedWindow) -> FinePackPacket:
        """Turn one flushed window into a FinePack packet."""
        cfg = self.config
        if self._fast and all(e.data is None for e in window.entries):
            rows, starts, lengths = masks_to_runs(
                [e.mask for e in window.entries], cfg.entry_bytes
            )
            line_addrs = np.asarray(
                [e.line_addr for e in window.entries], dtype=np.int64
            )
            offsets = line_addrs[rows] + starts - window.base_addr
            # Column-native packet: downstream accounting consumes the
            # (offset, length) arrays; SubTransaction objects are only
            # materialized if something asks for them.
            return FinePackPacket(
                base_addr=window.base_addr,
                columns=(offsets, lengths),
                stores_absorbed=window.stores_absorbed,
            )
        subs: list[SubTransaction] = []
        for entry in window.entries:
            for start, length in entry.runs(cfg.entry_bytes):
                offset = entry.line_addr + start - window.base_addr
                data = None
                if entry.data is not None:
                    data = bytes(entry.data[start : start + length])
                subs.append(
                    SubTransaction(offset=offset, length=length, data=data)
                )
        return FinePackPacket(
            base_addr=window.base_addr,
            subs=subs,
            stores_absorbed=window.stores_absorbed,
        )

    def to_wire_message(
        self, packet: FinePackPacket, src: int, dst: int, time: float
    ) -> WireMessage:
        """Wrap a packet in a wire message with byte-exact costs.

        The message's ``meta["ranges"]`` records the absolute byte
        ranges delivered, for the useful/wasted byte ledger.
        """
        payload, overhead = packet.wire_cost(self.config, self.protocol)
        offsets, lengths = packet.sub_columns()
        starts = packet.base_addr + offsets
        return WireMessage(
            src=src,
            dst=dst,
            payload_bytes=payload,
            overhead_bytes=overhead,
            kind=MessageKind.FINEPACK,
            issue_time=time,
            stores_packed=packet.stores_absorbed,
            meta={"ranges": (starts, lengths), "packet": packet},
        )
