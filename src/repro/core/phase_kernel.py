"""Columnar FinePack phase kernel: one whole phase per call.

The remote write queue and packetizer (paper Sec. IV-B), applied to a
whole phase's op columns at once.  A phase of stores and atomics ended by a system-scoped release, fed to
an empty single-window queue with no inactivity timeout, is a pure
function of its op columns.  :func:`pack_phase` computes that function
in two passes instead of one :class:`QueuePartition` insert per op:

1. **Flush structure.**  Ops are grouped by destination with a stable
   argsort (each partition sees only its own ops, in issue order).  Each
   destination's line pieces are scanned with plain ints -- window base,
   a ``{line: byte-enable mask}`` dict, committed payload cost and
   absorbed count -- applying exactly the partition's admission checks
   (window miss, then payload full, then entries full) and the atomic
   same-address conflict check.  The scan records only the flush
   points: (piece position, reason, stores absorbed, window base).
2. **Packets.**  Every piece then knows its flush window.  Sorting the
   pieces by (window, address) and taking the interval union per
   (window, line) -- a segment-wise ``np.maximum.accumulate`` over the
   run ends -- yields the sub-transaction runs in the packetizer's
   (line, start) order; ``np.add.reduceat`` gives each packet's data
   bytes, sub-transaction count and wire cost.  Byte-enable masks are
   never unpacked to bits.

The result is bit-identical to the per-op path
(``FinePackEgress.on_store``/``on_atomic``/``on_release``): the same
messages, in the same order, stamped from the same op slots.
:class:`~repro.core.remote_write_queue.QueuePartition`
and :class:`~repro.core.packetizer.Packetizer` stay the reference
implementation and the path for multi-window, timeout and traced runs.
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np

from ..interconnect.message import MessageKind, WireMessage
from ..interconnect.pcie import DW_BYTES, PCIeProtocol
from .config import FinePackConfig
from .packet import FinePackPacket
from .remote_write_queue import FlushReason

#: Addresses and store ends must stay below this bound so that the
#: int64 column arithmetic cannot overflow; phases beyond it decline.
_ADDR_LIMIT = 1 << 62


def _phase_events(
    addrs: np.ndarray,
    sizes: np.ndarray,
    dsts: np.ndarray,
    is_atomic: np.ndarray,
    entry_bytes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """The phase's queue events, grouped by destination.

    Stores split at line boundaries into pieces (the queue's unit);
    atomics stay whole with their size negated.  Returns ``(slot,
    start, length)`` columns, stably sorted by destination so each
    destination keeps issue order, and ``(dst, lo, hi)`` per
    destination segment.
    """
    n = int(addrs.size)
    shift = entry_bytes.bit_length() - 1
    first_line = addrs >> shift
    op_pieces = ((addrs + sizes - 1) >> shift) - first_line + 1
    op_pieces[is_atomic] = 1
    if n == 0 or int(op_pieces.max()) == 1:
        slot = np.arange(n, dtype=np.int64)
        start = addrs
        length = np.where(is_atomic, -sizes, sizes)
    else:
        slot = np.repeat(np.arange(n, dtype=np.int64), op_pieces)
        k = np.arange(slot.size, dtype=np.int64) - np.repeat(
            np.cumsum(op_pieces) - op_pieces, op_pieces
        )
        line0 = (first_line[slot] + k) << shift
        start = np.maximum(addrs[slot], line0)
        length = np.where(
            is_atomic[slot],
            -sizes[slot],
            np.minimum(addrs[slot] + sizes[slot], line0 + entry_bytes) - start,
        )
    dst = dsts[slot]
    order = np.argsort(dst, kind="stable")
    dst = dst[order]
    cuts = (np.flatnonzero(np.diff(dst)) + 1).tolist()
    segments = [
        (int(dst[lo]), lo, hi)
        for lo, hi in zip([0, *cuts], [*cuts, int(dst.size)])
        if lo < hi
    ]
    return slot[order], start[order], length[order], segments


def _scan_destination(
    starts: list[int],
    lengths: list[int],
    first_pos: int,
    config: FinePackConfig,
) -> list[tuple[int, FlushReason, int, int]]:
    """Replay one partition over its events with plain ints.

    ``starts``/``lengths`` are the destination's events in issue order:
    store line pieces with a positive length, atomics with their
    negated size.  Returns the flush points as ``(position, reason,
    stores absorbed, window base)`` -- positions count from
    ``first_pos``, and the end-of-phase release flush sits one past the
    last event.
    """
    entry_bytes = config.entry_bytes
    line_mask = ~(entry_bytes - 1)
    window_bytes = config.window_bytes
    window_mask = ~(window_bytes - 1)
    subheader = config.subheader_bytes
    # A piece fits when its length plus one sub-header fits the payload
    # budget left over by the committed cost.
    cost_limit = config.max_payload_bytes - subheader
    max_entries = config.queue_entries_per_partition
    spans = [(1 << k) - 1 for k in range(entry_bytes + 1)]
    window_miss = FlushReason.WINDOW_MISS
    payload_full = FlushReason.PAYLOAD_FULL
    entries_full = FlushReason.ENTRIES_FULL

    flushes: list[tuple[int, FlushReason, int, int]] = []
    entries: dict[int, int] = {}
    # ``absorbed`` is nonzero exactly while the partition is non-empty.
    base = base_end = cost = absorbed = n_entries = 0
    pos = first_pos - 1
    for start, length in zip(starts, lengths):
        pos += 1
        if length < 0:
            # An atomic flushes the partition first when it overlaps a
            # buffered byte (QueuePartition.matches_load).
            if absorbed:
                end = start - length
                line = start & line_mask
                while line < end:
                    mask = entries.get(line)
                    if mask is not None:
                        lo = start - line if start > line else 0
                        hi = end - line if end < line + entry_bytes else entry_bytes
                        if (mask >> lo) & spans[hi - lo]:
                            flushes.append(
                                (pos, FlushReason.ATOMIC_CONFLICT, absorbed, base)
                            )
                            entries = {}
                            cost = absorbed = n_entries = 0
                            break
                    line += entry_bytes
            continue
        line = start & line_mask
        old = entries.get(line)
        if absorbed:
            if start < base or start >= base_end:
                reason = window_miss
            elif length + cost > cost_limit:
                reason = payload_full
            elif old is None and n_entries >= max_entries:
                reason = entries_full
            else:
                reason = None
            if reason is not None:
                flushes.append((pos, reason, absorbed, base))
                entries = {}
                cost = absorbed = n_entries = 0
                old = None
        if not absorbed:
            base = start & window_mask
            base_end = base + window_bytes
        absorbed += 1
        if old is None:
            entries[line] = spans[length] << (start - line)
            cost += length + subheader
            n_entries += 1
        else:
            new = old | spans[length] << (start - line)
            if new != old:
                entries[line] = new
                # Entry cost: enabled bytes plus one sub-header per
                # maximal run (x & ~(x << 1) keeps each run's lowest bit).
                cost += new.bit_count() - old.bit_count() + subheader * (
                    (new & ~(new << 1)).bit_count() - (old & ~(old << 1)).bit_count()
                )
    if absorbed:
        flushes.append(
            (first_pos + len(starts), FlushReason.RELEASE, absorbed, base)
        )
    return flushes


def _sub_runs(
    ev_start: np.ndarray,
    ev_len: np.ndarray,
    flush_pos: np.ndarray,
    entry_bytes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-transaction runs of every flushed window of a phase.

    A piece belongs to the window closed by the first flush recorded
    after its event position; a flush at the piece's own position is
    the one it forced before joining the queue.  Returns ``(start,
    length, window)`` per maximal run, in packet order: by window, then
    by address.  Temporaries are dropped as soon as they are consumed,
    which keeps the transient footprint to a few arrays of the phase's
    length.
    """
    piece_pos = np.flatnonzero(ev_len > 0)
    window = np.searchsorted(flush_pos, piece_pos, side="right")
    start = ev_start[piece_pos]
    end = start + ev_len[piece_pos]
    del piece_pos
    # Sort by (window, address) with one argsort: windows are
    # contiguous in piece order, so window * n + address rank keys the
    # pieces without overflow (np.lexsort is several times slower).
    n = int(start.size)
    key = np.empty(n, dtype=np.int64)
    key[np.argsort(start)] = np.arange(n, dtype=np.int64)
    key += window * n
    order = np.argsort(key)
    del key
    start = start[order]
    end = end[order]
    window = window[order]
    del order
    # Interval union per (window, line) segment: keying each piece by
    # segment * 2 * entry_bytes + its in-line offset turns one global
    # running max into a segment-wise one.  A piece opens a new run
    # when it starts past every earlier end in its segment (a piece
    # starting exactly at an end is adjacent and extends the run).
    line = start & ~(entry_bytes - 1)
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (window[1:] != window[:-1]) | (line[1:] != line[:-1])
    seg_key = np.cumsum(new_run) - 1
    seg_key *= 2 * entry_bytes
    seg_key -= line
    del line
    end += seg_key
    run_max = np.maximum.accumulate(end, out=end)
    new_run[1:] |= seg_key[1:] + start[1:] > run_max[:-1]
    first = np.flatnonzero(new_run)
    last = np.append(first[1:] - 1, n - 1)
    run_start = start[first]
    return run_start, run_max[last] - seg_key[last] - run_start, window[first]


def pack_phase(
    config: FinePackConfig,
    protocol: PCIeProtocol,
    src: int,
    destinations: Collection[int],
    addrs: np.ndarray,
    sizes: np.ndarray,
    dsts: np.ndarray,
    times: np.ndarray,
    is_atomic: np.ndarray,
    release_time: float,
) -> tuple[tuple[int, WireMessage], ...] | None:
    """Pack one phase's op columns, ended by a release at ``release_time``.

    Equivalent to one ``on_store``/``on_atomic`` call per op in order,
    then ``on_release``, on a :class:`~repro.core.egress.FinePackEgress`
    whose single-window queue starts empty and has no flush timeout.
    ``destinations`` are the queue's partition keys.  Mutates nothing.
    Returns ``(op slot, message)`` pairs in emission order: the slot
    whose issue time stamped the message, ``-1`` for a message flushed
    by the end-of-phase release.

    Returns ``None`` -- before doing any work a caller could observe --
    for a phase the per-op path would reject (a size <= 0, an atomic
    larger than the protocol's max payload, a destination without a
    partition) or whose addresses leave the int64-safe range; the
    caller then runs the per-op hooks so errors surface exactly there.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    is_atomic = np.asarray(is_atomic, dtype=bool)
    n = int(addrs.size)
    valid = np.zeros(max(destinations, default=-1) + 1, dtype=bool)
    valid[list(destinations)] = True
    n_atomics = int(np.count_nonzero(is_atomic))
    if n and (
        int(sizes.min()) <= 0
        or int(dsts.min()) < 0
        or int(dsts.max()) >= valid.size
        or not valid[dsts].all()
        or int(addrs.min()) < 0
        or int(addrs.max()) + int(sizes.max()) >= _ADDR_LIMIT
        or (n_atomics and int(sizes[is_atomic].max()) > protocol.max_payload)
    ):
        return None

    ev_slot, ev_start, ev_len, segments = _phase_events(
        addrs, sizes, dsts, is_atomic, config.entry_bytes
    )

    # Pass 1: flush structure, one plain-int scan per destination.
    flushes: list[tuple[int, FlushReason, int, int]] = []
    flush_dsts: list[int] = []
    for dst, lo, hi in segments:
        dst_flushes = _scan_destination(
            ev_start[lo:hi].tolist(), ev_len[lo:hi].tolist(), lo, config
        )
        flushes.extend(dst_flushes)
        flush_dsts.extend([dst] * len(dst_flushes))

    # Pass 2: the packets, one per flush.
    n_flush = len(flushes)
    flush_msgs: list[WireMessage] = []
    f_slot = np.empty(0, dtype=np.int64)
    if n_flush:
        f_pos, f_reason, f_absorbed, f_base = zip(*flushes)
        f_pos = np.asarray(f_pos, dtype=np.int64)
        released = np.fromiter(
            (r is FlushReason.RELEASE for r in f_reason), bool, n_flush
        )
        # A release flush sits past its destination's last event.
        f_slot = np.where(
            released, -1, ev_slot[np.minimum(f_pos, ev_slot.size - 1)]
        )
        f_stamp = np.where(released, release_time, times[f_slot]).tolist()
        run_start, run_len, run_wid = _sub_runs(
            ev_start, ev_len, f_pos, config.entry_bytes
        )
        offsets = run_start - np.asarray(f_base, dtype=np.int64)[run_wid]
        # Every window holds at least one piece, so the runs group into
        # exactly n_flush consecutive windows.
        win_first = np.flatnonzero(np.diff(run_wid, prepend=-1))
        n_subs = np.diff(win_first, append=run_start.size)
        data = np.add.reduceat(run_len, win_first)
        inner = n_subs * config.subheader_bytes + data
        overhead = protocol.per_tlp_overhead + -(-inner // DW_BYTES) * DW_BYTES - data
        bounds = win_first.tolist()
        bounds.append(int(run_start.size))
        for lo, hi, base, absorbed, dst, payload, extra, stamp in zip(
            bounds,
            bounds[1:],
            f_base,
            f_absorbed,
            flush_dsts,
            data.tolist(),
            overhead.tolist(),
            f_stamp,
        ):
            lengths = run_len[lo:hi]
            packet = FinePackPacket(
                base_addr=base,
                columns=(offsets[lo:hi], lengths),
                stores_absorbed=absorbed,
                data_bytes=payload,
            )
            flush_msgs.append(
                WireMessage(
                    src=src,
                    dst=dst,
                    payload_bytes=payload,
                    overhead_bytes=extra,
                    kind=MessageKind.FINEPACK,
                    issue_time=stamp,
                    stores_packed=absorbed,
                    meta={"ranges": (run_start[lo:hi], lengths), "packet": packet},
                )
            )

    # Atomics bypass the queue: one TLP each, stamped at their own slot
    # and emitted right after any conflict flush they forced.
    atomic_slots = np.flatnonzero(is_atomic)
    atomic_msgs: list[WireMessage] = []
    if n_atomics:
        a_sizes = sizes[atomic_slots]
        payload, overhead = protocol.store_wire_cost_batch(a_sizes)
        for addr, size, dst, pay, extra, stamp in zip(
            addrs[atomic_slots].tolist(),
            a_sizes.tolist(),
            dsts[atomic_slots].tolist(),
            payload.tolist(),
            overhead.tolist(),
            times[atomic_slots].tolist(),
        ):
            atomic_msgs.append(
                WireMessage(
                    src=src,
                    dst=dst,
                    payload_bytes=pay,
                    overhead_bytes=extra,
                    kind=MessageKind.ATOMIC,
                    issue_time=stamp,
                    stores_packed=1,
                    meta={"range1": (addr, size)},
                )
            )

    # Emission order: by op slot, a conflict flush before its atomic,
    # release flushes last (already in ascending destination order).
    pool = flush_msgs + atomic_msgs
    pool_slots = np.concatenate((f_slot, atomic_slots))
    emit_key = 2 * np.where(pool_slots < 0, n, pool_slots)
    emit_key[n_flush:] += 1
    emit = np.argsort(emit_key, kind="stable")
    return tuple(
        zip(pool_slots[emit].tolist(), [pool[i] for i in emit.tolist()])
    )
