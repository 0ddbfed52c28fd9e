"""Struct-of-arrays message batches and bit-mask vectorization helpers.

The scalar simulator materializes one :class:`WireMessage` object per
transaction; for the store-based paradigms that is hundreds of
thousands of allocations per iteration and the single largest p2p cost.
A :class:`MessageBatch` carries the same per-message fields as parallel
numpy arrays -- one batch per (phase, egress engine), for p2p stores
and FinePack packets alike -- and the batch transport layer
(:mod:`repro.perf.transport`), the de-packetizers and the byte ledger
consume it without ever constructing the objects.

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

    Semantically equivalent to the ``list[WireMessage]`` a scalar
    engine emits for the same ops, with all messages from one source
    GPU.  Message ``i`` delivers ``counts[i]`` contiguous byte ranges,
    the next ones of the flat ``starts``/``lengths`` columns (the array
    form of ``meta["ranges"]``); without ``counts`` every message
    delivers exactly one (``meta["range1"]``), as the passthrough (p2p)
    engine's do.  ``entries`` gives each FinePack packet's
    de-packetizer buffer entries; only batches holding packets carry
    it.
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
    entries: np.ndarray | None = None  # int64 de-packetizer entries

    def __len__(self) -> int:
        return self.dst.size

    @property
    def wire(self) -> np.ndarray:
        return self.payload + self.overhead


def arrays_from_messages(
    msgs: list[WireMessage],
) -> tuple[np.ndarray, ...]:
    """Flatten a message list into transport-layer parallel arrays.

    Returns ``(src, dst, payload, overhead, kind, issue, packed)``; the
    caller keeps the original list for fields the arrays do not carry
    (``meta``).
    """
    n = len(msgs)
    src = np.empty(n, dtype=np.int64)
    dst = np.empty(n, dtype=np.int64)
    payload = np.empty(n, dtype=np.int64)
    overhead = np.empty(n, dtype=np.int64)
    kind = np.empty(n, dtype=np.uint8)
    issue = np.empty(n, dtype=np.float64)
    packed = np.empty(n, dtype=np.int64)
    for i, m in enumerate(msgs):
        src[i] = m.src
        dst[i] = m.dst
        payload[i] = m.payload_bytes
        overhead[i] = m.overhead_bytes
        kind[i] = KIND_CODES[m.kind]
        issue[i] = m.issue_time
        packed[i] = m.stores_packed
    return src, dst, payload, overhead, kind, issue, packed


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
