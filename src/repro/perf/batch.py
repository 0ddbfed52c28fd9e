"""Struct-of-arrays message batches and bit-mask vectorization helpers.

The per-op engines materialize one :class:`WireMessage` object per
transaction; for the store-based paradigms that is hundreds of
thousands of allocations per iteration and the single largest p2p cost.
A :class:`MessageBatch` carries the same per-message fields as parallel
numpy arrays, one batch per phase.  It is the only egress format past
the engines: the passthrough (p2p) engine and FinePack's phase
templates emit batches directly, every other message list becomes one
through :meth:`MessageBatch.from_messages`, and both transports
(:mod:`repro.perf.transport` and the event path), the de-packetizers
and the byte ledger read nothing else.

:func:`masks_to_runs` is the shared vectorized replacement for
:meth:`QueueEntry.runs`: it extracts every maximal contiguous run of
enabled bytes from a whole window's worth of byte-enable masks in one
``unpackbits`` + ``diff`` pass, in exactly the (entry order, ascending
start) order the scalar loop produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..interconnect.message import KIND_CODES, MessageKind, WireMessage

STORE_CODE = KIND_CODES[MessageKind.STORE]
ATOMIC_CODE = KIND_CODES[MessageKind.ATOMIC]
FINEPACK_CODE = KIND_CODES[MessageKind.FINEPACK]

#: Codes of the kinds whose ``stores_packed`` feeds
#: :attr:`PacketStats.packed_counts` (mirrors ``PacketStats.record``).
PACKED_KIND_CODES = np.asarray(
    sorted(
        KIND_CODES[k]
        for k in (
            MessageKind.FINEPACK,
            MessageKind.STORE,
            MessageKind.COMBINED_STORE,
        )
    ),
    dtype=np.uint8,
)


@dataclass(slots=True)
class MessageBatch:
    """One egress engine's messages for one phase, as parallel arrays.

    The one egress format past the engines: both transports and the
    byte ledger read only batches.  It carries what the ``list[WireMessage]``
    an engine emits for the same ops carries, with all messages from
    one source GPU.  Message ``i`` delivers ``counts[i]`` contiguous
    byte ranges, the next ones of the flat ``starts``/``lengths``
    columns; without ``counts`` every message delivers exactly one, as
    the passthrough (p2p) engine's do.  A FinePack packet's range count
    is its sub-transaction count, from which the de-packetizer derives
    its buffer entries.
    """

    src: int
    dst: np.ndarray  # int64 destination GPU per message
    payload: np.ndarray  # int64 payload bytes
    overhead: np.ndarray  # int64 protocol overhead bytes
    kind: np.ndarray  # uint8 KIND_CODES values
    issue: np.ndarray  # float64 issue times
    packed: np.ndarray  # int64 stores_packed
    starts: np.ndarray  # int64 delivered range starts, message by message
    lengths: np.ndarray  # int64 delivered range lengths
    counts: np.ndarray | None = None  # int64 ranges per message

    def __len__(self) -> int:
        return self.dst.size

    @property
    def wire(self) -> np.ndarray:
        return self.payload + self.overhead

    @classmethod
    def from_messages(cls, src: int, msgs: list[WireMessage]) -> "MessageBatch":
        """The messages ``msgs`` from GPU ``src`` as one batch, in order.

        This is the one parser of the range annotations engines put on
        their messages: ``meta["range1"] = (addr, size)`` for one range,
        or ``meta["ranges"] = (starts, lengths)`` for several.
        """
        dst: list[int] = []
        payload: list[int] = []
        overhead: list[int] = []
        kind: list[int] = []
        issue: list[float] = []
        packed: list[int] = []
        counts: list[int] = []
        starts: list[int] = []
        lengths: list[int] = []
        for m in msgs:
            if m.src != src:
                raise ValueError(f"message {m} is not from GPU {src}")
            single = m.meta.get("range1")
            if single is not None:
                starts.append(single[0])
                lengths.append(single[1])
                counts.append(1)
            else:
                ranges = m.meta.get("ranges")
                if ranges is None:
                    raise ValueError(f"message {m} lacks range annotations")
                starts.extend(np.asarray(ranges[0]).tolist())
                lengths.extend(np.asarray(ranges[1]).tolist())
                counts.append(len(ranges[0]))
            dst.append(m.dst)
            payload.append(m.payload_bytes)
            overhead.append(m.overhead_bytes)
            kind.append(KIND_CODES[m.kind])
            issue.append(m.issue_time)
            packed.append(m.stores_packed)
        return cls(
            src=src,
            dst=np.array(dst, dtype=np.int64),
            payload=np.array(payload, dtype=np.int64),
            overhead=np.array(overhead, dtype=np.int64),
            kind=np.array(kind, dtype=np.uint8),
            issue=np.array(issue, dtype=np.float64),
            packed=np.array(packed, dtype=np.int64),
            starts=np.array(starts, dtype=np.int64),
            lengths=np.array(lengths, dtype=np.int64),
            counts=np.array(counts, dtype=np.int64),
        )

    def select(self, keep: np.ndarray) -> "MessageBatch":
        """The messages where the bool mask ``keep`` is set, with their
        ranges."""
        ranges = keep if self.counts is None else np.repeat(keep, self.counts)
        return MessageBatch(
            src=self.src,
            dst=self.dst[keep],
            payload=self.payload[keep],
            overhead=self.overhead[keep],
            kind=self.kind[keep],
            issue=self.issue[keep],
            packed=self.packed[keep],
            starts=self.starts[ranges],
            lengths=self.lengths[ranges],
            counts=None if self.counts is None else self.counts[keep],
        )


def masks_to_runs(
    masks: list[int], entry_bytes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized run extraction over many byte-enable masks.

    Parameters
    ----------
    masks:
        One ``entry_bytes``-bit enable mask per queue entry (bit ``i``
        set means byte ``i`` is valid).  ``entry_bytes`` must be a
        multiple of 8 (callers fall back to the scalar loop otherwise).

    Returns
    -------
    (entry_index, start, length) int64 arrays, one element per maximal
    contiguous run, ordered by (entry, ascending start) -- the order
    ``QueueEntry.runs`` yields entry by entry.
    """
    if entry_bytes % 8:
        raise ValueError(f"entry_bytes must be a multiple of 8: {entry_bytes}")
    n = len(masks)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    nbytes = entry_bytes // 8
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    bits = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(n, nbytes),
        axis=1,
        bitorder="little",
    )
    # Zero-pad each row on both sides so diff marks run starts (+1) and
    # one-past-run-ends (-1) even at the row edges.
    padded = np.zeros((n, entry_bytes + 2), dtype=np.int8)
    padded[:, 1:-1] = bits
    deltas = np.diff(padded, axis=1).ravel()
    run_starts = np.flatnonzero(deltas == 1)
    run_ends = np.flatnonzero(deltas == -1)
    # Starts and ends alternate within each row and rows hold balanced
    # pairs, so the i-th start matches the i-th end globally; the row
    # offsets cancel in the subtraction.
    width = entry_bytes + 1
    entry_idx = run_starts // width
    starts = run_starts % width
    lengths = run_ends - run_starts
    return entry_idx.astype(np.int64), starts.astype(np.int64), lengths.astype(np.int64)
