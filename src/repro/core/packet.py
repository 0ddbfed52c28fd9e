"""FinePack packet format: outer transaction + sub-transactions.

Implements the logical packet structure of the paper's Figure 6 and
Tables I/II.  The outer packet reuses the PCIe memory-write TLP header
(same size, one repurposed type encoding); its address field carries the
*base address* shared by every packed store, and the payload is a
concatenation of sub-transactions, each

* a sub-header of ``subheader_bytes``: a 10-bit length plus an
  address-offset field in the remaining bits (byte-aligned, unlike the
  DW-aligned outer fields), followed by
* the store's payload bytes.

Encoding/decoding is byte-exact so the de-packetizer round-trip and the
wire-cost accounting are the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..interconnect.pcie import DW_BYTES, PCIeProtocol
from .config import LENGTH_FIELD_BITS, FinePackConfig


@dataclass(frozen=True, slots=True)
class SubTransaction:
    """One packed store: offset from the outer base address + payload.

    ``data`` is optional: timing-only simulations pass ``None`` and only
    ``length`` is used; functional tests carry real bytes.
    """

    offset: int
    length: int
    data: bytes | None = None

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"negative offset: {self.offset}")
        if self.length <= 0:
            raise ValueError(f"sub-transaction length must be positive: {self.length}")
        if self.data is not None and len(self.data) != self.length:
            raise ValueError(
                f"data length {len(self.data)} != declared length {self.length}"
            )

    def encode_header(self, config: FinePackConfig) -> bytes:
        """Pack (length, offset) into ``config.subheader_bytes`` bytes."""
        if self.length > config.max_length_value:
            raise ValueError(
                f"length {self.length} exceeds the {LENGTH_FIELD_BITS}-bit field"
            )
        if self.offset >= config.window_bytes:
            raise ValueError(
                f"offset {self.offset:#x} outside the "
                f"{config.window_bytes}-byte window"
            )
        word = (self.length << config.offset_bits) | self.offset
        return word.to_bytes(config.subheader_bytes, "little")

    @staticmethod
    def decode_header(raw: bytes, config: FinePackConfig) -> tuple[int, int]:
        """Inverse of :meth:`encode_header`; returns (length, offset)."""
        if len(raw) != config.subheader_bytes:
            raise ValueError(
                f"expected {config.subheader_bytes} header bytes, got {len(raw)}"
            )
        word = int.from_bytes(raw, "little")
        offset = word & (config.window_bytes - 1)
        length = word >> config.offset_bits
        return length, offset

    def wire_bytes(self, config: FinePackConfig) -> int:
        """Bytes this sub-transaction occupies inside the outer payload."""
        return config.subheader_bytes + self.length


class FinePackPacket:
    """An outer FinePack transaction embedded in a PCIe TLP.

    Attributes
    ----------
    base_addr:
        Window base carried in the outer TLP address field (Table I).
    subs:
        Packed sub-transactions, in the order the packetizer emitted
        them (ascending address).
    stores_absorbed:
        Program-level stores merged into this packet, including
        same-address overwrites (the Figure 11 statistic).

    The packet holds its sub-transactions in one of two forms: the
    ``subs`` object list, or (from the vectorized packetizer path) a
    pair of ``(offset, length)`` int64 columns.  Either form derives
    the other on demand -- timing-only replays never materialize the
    per-sub objects, which is the bulk path's hot-loop saving.
    """

    __slots__ = ("base_addr", "stores_absorbed", "_subs", "_columns", "_data_bytes")

    def __init__(
        self,
        base_addr: int,
        subs: list[SubTransaction] | None = None,
        stores_absorbed: int = 0,
        columns: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.base_addr = base_addr
        self.stores_absorbed = stores_absorbed
        if subs is None and columns is None:
            subs = []
        self._subs = subs
        self._columns = columns
        self._data_bytes: int | None = None

    @property
    def subs(self) -> list[SubTransaction]:
        if self._subs is None:
            offsets, lengths = self._columns
            self._subs = [
                SubTransaction(offset=o, length=n)
                for o, n in zip(offsets.tolist(), lengths.tolist())
            ]
        return self._subs

    def sub_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(offset, length)`` columns (data bytes, if any, stay
        on :attr:`subs`)."""
        if self._columns is None:
            self._columns = (
                np.asarray([s.offset for s in self._subs], dtype=np.int64),
                np.asarray([s.length for s in self._subs], dtype=np.int64),
            )
        return self._columns

    @property
    def n_subs(self) -> int:
        return (
            len(self._subs)
            if self._subs is not None
            else int(self._columns[0].size)
        )

    @property
    def payload_data_bytes(self) -> int:
        """Actual store bytes carried (excludes sub-headers)."""
        if self._data_bytes is not None:
            return self._data_bytes
        if self._subs is None:
            # Column-native packets are immutable once built: reduce once.
            self._data_bytes = int(self._columns[1].sum())
            return self._data_bytes
        return sum(s.length for s in self._subs)

    def inner_payload_bytes(self, config: FinePackConfig) -> int:
        """Total outer-TLP payload: sub-headers plus data."""
        return self.n_subs * config.subheader_bytes + self.payload_data_bytes

    def wire_cost(
        self, config: FinePackConfig, protocol: PCIeProtocol
    ) -> tuple[int, int]:
        """(payload, overhead) bytes on the wire.

        Payload counts only real store data; sub-headers, the outer TLP
        overhead, and DW padding of the inner payload all count as
        protocol overhead (this is the accounting behind Fig. 10's
        "protocol overhead" wedge).
        """
        data = self.payload_data_bytes
        inner = self.inner_payload_bytes(config)
        if inner > config.max_payload_bytes:
            raise ValueError(
                f"inner payload {inner} exceeds max {config.max_payload_bytes}"
            )
        padded = -(-inner // DW_BYTES) * DW_BYTES
        overhead = protocol.per_tlp_overhead + (padded - inner) + (inner - data)
        return data, overhead

    def encode_payload(self, config: FinePackConfig) -> bytes:
        """Serialize all sub-transactions into the outer payload bytes."""
        out = bytearray()
        for s in self.subs:
            out += s.encode_header(config)
            out += s.data if s.data is not None else bytes(s.length)
        return bytes(out)

    @staticmethod
    def decode_payload(
        base_addr: int, raw: bytes, config: FinePackConfig
    ) -> "FinePackPacket":
        """Parse outer payload bytes back into a packet."""
        subs: list[SubTransaction] = []
        pos = 0
        while pos < len(raw):
            if pos + config.subheader_bytes > len(raw):
                raise ValueError(
                    f"truncated sub-header at byte {pos} of {len(raw)}"
                )
            length, offset = SubTransaction.decode_header(
                raw[pos : pos + config.subheader_bytes], config
            )
            pos += config.subheader_bytes
            if pos + length > len(raw):
                raise ValueError(
                    f"sub-transaction at offset {offset:#x} overruns payload"
                )
            subs.append(
                SubTransaction(offset=offset, length=length, data=raw[pos : pos + length])
            )
            pos += length
        return FinePackPacket(base_addr=base_addr, subs=subs, stores_absorbed=len(subs))

    def stores(self) -> list[tuple[int, int, bytes | None]]:
        """Disaggregated (addr, length, data) triples."""
        return [(self.base_addr + s.offset, s.length, s.data) for s in self.subs]
