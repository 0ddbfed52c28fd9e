"""Columnar FinePack phase kernel: one whole phase per call.

The remote write queue and packetizer (paper Sec. IV-B), applied to a
whole phase's op columns at once.  A phase of stores and atomics
ended by a system-scoped release, fed to an empty single-window queue
with no inactivity timeout, is a pure function of its op columns.
:func:`pack_phase` computes that function in two passes instead of one
:class:`QueuePartition` insert per op:

1. **Flush structure.**  Ops are grouped by destination with a radix
   sort (each partition sees only its own ops, in issue order).
   :func:`_flush_search` then finds every partition's flush points --
   (piece position, reason, stores absorbed, window base) -- over the
   whole phase, one step per flush.  Array passes give each piece the
   points that can end a partition it opens: the next window change or
   the destination's end, the first overflow of the payload's upper
   bound, the (E+1)-th piece and the first line that repeats since it.
   A step is O(1) when these decide the flush exactly; with a repeat,
   entries-full is one count over a slice.  Any other partition is
   replayed from its empty start to its first flush by
   :func:`_scan_destination`, which feeds the pieces to a
   :class:`~repro.core.remote_write_queue.QueuePartition`: the queue's
   admission checks (window miss, then payload full, then entries
   full) and atomic conflict check are the only scalar rule set and
   the search's test oracle.  Empty phases and phases with atomics,
   which no workload mixes with stores, are replayed whole.
2. **Packets.**  Every piece then knows its flush window.  Sorting the
   pieces by (window, address) and taking the interval union per
   (window, line) -- a segment-wise ``np.maximum.accumulate`` over the
   run ends -- yields the sub-transaction runs in the packetizer's
   (line, start) order; ``np.add.reduceat`` gives each packet's data
   bytes, sub-transaction count and wire cost.  Byte-enable masks are
   never unpacked to bits.

The packets and atomics come out as one :class:`PhaseTemplate` of
message columns, with no packet or message object; both transports
take it as a :class:`~repro.perf.batch.MessageBatch`
(:meth:`PhaseTemplate.batch`), bit-identical to the per-op path
(``FinePackEgress.on_store``/``on_atomic``/``on_release``): the same
messages, in the same order, stamped from the same op slots.
:class:`~repro.core.remote_write_queue.QueuePartition`
and :class:`~repro.core.packetizer.Packetizer` stay the reference
implementation and the path for multi-window, timeout and traced runs.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from itertools import count

import numpy as np

from ..interconnect.pcie import DW_BYTES, PCIeProtocol
from ..perf.batch import ATOMIC_CODE, FINEPACK_CODE, MessageBatch
from ..trace.ids import stable_argsort
from .config import FinePackConfig
from .remote_write_queue import FlushedWindow, FlushReason, QueuePartition

#: Addresses and store ends must stay below this bound so that the
#: int64 column arithmetic cannot overflow; phases beyond it decline.
_ADDR_LIMIT = 1 << 62


def _phase_events(
    addrs: np.ndarray,
    sizes: np.ndarray,
    dsts: np.ndarray,
    is_atomic: np.ndarray,
    entry_bytes: int,
    n_dsts: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The phase's queue events, grouped by destination.

    Stores split at line boundaries into pieces (the queue's unit);
    atomics stay whole with their size negated.  Returns ``(slot,
    start, length, dst)`` columns, stably sorted by destination (ids
    below ``n_dsts``) so each destination keeps issue order.
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
    order = stable_argsort(dst, n_dsts)
    return slot[order], start[order], length[order], dst[order]


def _scan_destination(
    starts: list[int],
    lengths: list[int],
    first_pos: int,
    config: FinePackConfig,
    first_only: bool = False,
) -> list[tuple[int, FlushReason, int, int]]:
    """Replay one partition over its events through a
    :class:`~repro.core.remote_write_queue.QueuePartition`.

    ``starts``/``lengths`` are the destination's events in issue order:
    store line pieces with a positive length, atomics with their
    negated size (an atomic flushes the partition first when it
    overlaps a buffered byte).  Returns the flush points as
    ``(position, reason, stores absorbed, window base)`` -- positions
    count from ``first_pos``, and the end-of-phase release flush sits
    one past the last event.  With ``first_only`` the scan stops at the
    first flush (the step search's fallback for one partition).
    """
    partition = QueuePartition(config, dst=0)
    flushed: list[tuple[int, FlushedWindow | None]] = []
    for pos, start, length in zip(count(first_pos), starts, lengths):
        if length > 0:
            flushed.extend((pos, window) for window in partition.insert(start, length))
        elif not partition.empty and partition.matches_load(start, -length):
            flushed.append((pos, partition.flush(FlushReason.ATOMIC_CONFLICT)))
        if first_only and flushed:
            break
    else:
        end = first_pos + len(starts)
        flushed.append((end, partition.flush(FlushReason.RELEASE)))
    return [
        (pos, window.reason, window.stores_absorbed, window.base_addr)
        for pos, window in flushed
        if window is not None
    ]


#: Flush reasons, indexed by the reason codes of :func:`_flush_search`.
_REASONS = (
    FlushReason.WINDOW_MISS,
    FlushReason.PAYLOAD_FULL,
    FlushReason.ENTRIES_FULL,
    FlushReason.ATOMIC_CONFLICT,
    FlushReason.RELEASE,
)
_WINDOW_MISS, _PAYLOAD_FULL, _ENTRIES_FULL = range(3)
_RELEASE = _REASONS.index(FlushReason.RELEASE)


def _flush_search(
    ev_start: np.ndarray,
    ev_len: np.ndarray,
    ev_dst: np.ndarray,
    config: FinePackConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every partition's flushes over a whole phase, one step per flush.

    ``ev_*`` are the phase's events as :func:`_phase_events` returns
    them.  Returns ``(position, reason code, stores absorbed, window
    base, destination)`` columns, one row per flush in destination then
    position order; reason codes index ``_REASONS``.  Row for row, this
    is :func:`_scan_destination` -- the queue itself -- over each
    destination's events, which runs as it is for empty phases, phases
    with atomics (no workload mixes them with stores in one phase) and
    phases whose line span is too wide to key the repeat search.

    Array passes give every piece ``p`` the first point that can end a
    partition opened at ``p``: the next window change or the
    destination's end (exact), the first overflow of the payload's
    upper bound (each piece adds at most its length plus one
    sub-header), and the (E+1)-th piece since ``p``.  Before the first
    line that repeats since ``p``, the cost is that bound and every
    piece takes an entry, so payload-full is exact when no line repeats
    before it and entries-full when none repeats up to and including
    it.  A step then costs O(1).  With a repeat, entries-full counts
    the pieces whose line is new since ``p``; a partition these do not
    settle runs :func:`_scan_destination` from ``p`` to its first
    flush.
    """
    n = int(ev_start.size)
    cut = np.flatnonzero(ev_dst[1:] != ev_dst[:-1]) + 1
    shift = config.entry_bytes.bit_length() - 1
    # The scan takes empty phases, phases with atomics and phases whose
    # line span is too wide for the repeat search's int64 key, line * n
    # + position.
    if (
        not n
        or not (ev_len > 0).all()
        or ((int(ev_start.max()) >> shift) - (int(ev_start.min()) >> shift) + 1) * n
        >= _ADDR_LIMIT
    ):
        return _scan_phase(ev_start, ev_len, ev_dst, cut, config)
    max_entries = config.queue_entries_per_partition
    # Each step frees what it no longer needs: the search keeps a few
    # arrays of the phase's length alive at a time.

    # Hard ends: the next window change (a window miss) or the
    # destination's end (the release flush).
    win = ev_start >> (config.window_bytes.bit_length() - 1)
    dst_ends = np.append(cut, n)
    point = np.zeros(n + 1, dtype=bool)
    np.not_equal(win[1:], win[:-1], out=point[1:n])
    del win
    point[dst_ends] = True
    ends = np.flatnonzero(point)
    hard = np.repeat(ends, np.diff(ends, prepend=0))
    released = np.zeros(n + 1, dtype=bool)
    released[dst_ends] = True
    code = np.where(released[hard], np.int8(_RELEASE), np.int8(_WINDOW_MISS))
    del point, released

    # Entries-full: the (E+1)-th piece since p, if before the hard end.
    full = np.arange(max_entries, n + max_entries)
    np.minimum(full, n, out=full)
    entries = full < hard
    stop = np.where(entries, full, hard)
    code[entries] = _ENTRIES_FULL

    # Payload-full: ``cost[q] - cost[p]`` bounds the committed cost
    # when piece q arrives; ``reach`` is the running max of what each
    # piece would bring it to.  Only pieces whose bound overflows
    # before their entries or hard stop need the search.
    sub = config.subheader_bytes
    cost = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ev_len + sub, out=cost[1:])
    reach = ev_len + cost[:n]
    np.maximum.accumulate(reach, out=reach)
    limit = cost[:n]
    limit += config.max_payload_bytes - sub
    del cost
    np.minimum(full, hard - 1, out=full)
    over = np.flatnonzero(reach[full] > limit)
    del full
    stop[over] = np.searchsorted(reach, limit[over], side="right")
    code[over] = _PAYLOAD_FULL

    # The first piece whose line has already appeared since p: a suffix
    # minimum of each piece's next same-line index.  Sorting line * n +
    # position keeps issue order within a line.  A link into a later
    # destination lands past p's destination end, beyond every stop,
    # so the line alone keys the search.
    at = ev_start >> shift
    at -= int(at.min())
    at *= n
    at += np.arange(n)
    at.sort()
    line = at // n
    at -= line * n
    same = line[1:] == line[:-1]
    del line
    repeat = np.full(n, n, dtype=np.int64)
    repeat[at[:-1][same]] = at[1:][same]
    np.minimum.accumulate(repeat[::-1], out=repeat[::-1])
    unsure = entries & (repeat <= stop)
    unsure[over] = repeat[over] < stop[over]
    del repeat, entries
    stop[unsure] = -1
    del unsure

    prev = None

    def settle(p: int) -> tuple[int, int]:
        """Flush of the unsettled partition opened at ``p``."""
        nonlocal prev
        end = int(dst_ends[np.searchsorted(dst_ends, p, side="right")])
        last = int(hard[p])
        bound = int(np.searchsorted(reach, limit[p], side="right"))
        if code[p] == _ENTRIES_FULL:
            # A line repeats before the (E+1)-th piece: entries-full is
            # the (E+1)-th piece whose line is new since p, unless the
            # upper bound overflows or the hard end comes first.
            if prev is None:
                prev = np.full(n, -1, dtype=np.int64)
                prev[at[1:][same]] = at[:-1][same]
            new = np.flatnonzero(prev[p : min(bound, last)] < p)
            if new.size > max_entries:
                return p + int(new[max_entries]), _ENTRIES_FULL
            if last <= bound:
                return last, _WINDOW_MISS if last < end else _RELEASE
        # The flush lies at or past the bound and at or before the hard
        # end.  The scan gets slices that double from twice the bound's
        # distance, so a fallback costs what its partition does; a
        # release at a slice's end short of the destination's is no
        # flush.
        top = min(last + 1, end)
        size = 2 * (bound - p + 1)
        while True:
            hi = min(p + size, top)
            stop_at, reason, _, _ = _scan_destination(
                ev_start[p:hi].tolist(),
                ev_len[p:hi].tolist(),
                p,
                config,
                first_only=True,
            )[0]
            if hi == top or reason is not FlushReason.RELEASE:
                return stop_at, _REASONS.index(reason)
            size *= 2

    openers: list[int] = []
    flushes: list[int] = []
    settled: list[tuple[int, int]] = []
    p = 0
    while p < n:
        flush = stop.item(p)
        if flush < 0:
            flush, reason = settle(p)
            settled.append((len(openers), reason))
        openers.append(p)
        flushes.append(flush)
        p = flush
    opener = np.array(openers, dtype=np.int64)
    position = np.array(flushes, dtype=np.int64)
    reasons = code[opener]
    for i, reason in settled:
        reasons[i] = reason
    return (
        position,
        reasons,
        position - opener,
        ev_start[opener] & -config.window_bytes,
        ev_dst[opener],
    )


def _scan_phase(
    ev_start: np.ndarray,
    ev_len: np.ndarray,
    ev_dst: np.ndarray,
    cut: np.ndarray,
    config: FinePackConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_flush_search`'s columns from one :func:`_scan_destination`
    per destination; ``cut`` holds each destination's first event."""
    rows: list[tuple[int, FlushReason, int, int]] = []
    dsts: list[int] = []
    bounds = [0, *cut.tolist(), int(ev_start.size)]
    for lo, hi in zip(bounds, bounds[1:]):
        found = _scan_destination(
            ev_start[lo:hi].tolist(), ev_len[lo:hi].tolist(), lo, config
        )
        if found:
            rows.extend(found)
            dsts.extend([int(ev_dst[lo])] * len(found))
    if not rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty, empty
    position, reasons, absorbed, base = zip(*rows)
    return (
        np.array(position, dtype=np.int64),
        np.array([_REASONS.index(r) for r in reasons], dtype=np.int8),
        np.array(absorbed, dtype=np.int64),
        np.array(base, dtype=np.int64),
        np.array(dsts, dtype=np.int64),
    )


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


@dataclass(frozen=True, slots=True)
class PhaseTemplate:
    """One packed phase as message columns, in emission order.

    Row ``i`` is one message: a FinePack packet or an atomic that
    bypassed the queue.  ``slot[i]`` is the op slot whose issue time
    stamps it, ``-1`` for a packet flushed by the end-of-phase release
    (stamped with the release time), so the template holds no time and
    one template serves every phase with the same op columns.  Message
    ``i`` delivers the next ``counts[i]`` ranges of the flat
    ``starts``/``lengths`` columns, a packet's sub-transactions.  The
    columns are read-only, because replays share them.
    """

    slot: np.ndarray
    dst: np.ndarray
    payload: np.ndarray
    overhead: np.ndarray
    kind: np.ndarray
    packed: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        for name in self.__slots__:
            getattr(self, name).flags.writeable = False

    def batch(
        self, src: int, times: np.ndarray, release_time: float
    ) -> MessageBatch:
        """The phase's messages as one :class:`MessageBatch`, stamped
        for a phase issued at ``times``."""
        return MessageBatch(
            src=src,
            dst=self.dst,
            payload=self.payload,
            overhead=self.overhead,
            kind=self.kind,
            issue=np.where(self.slot < 0, release_time, times[self.slot]),
            packed=self.packed,
            starts=self.starts,
            lengths=self.lengths,
            counts=self.counts,
        )


def pack_phase(
    config: FinePackConfig,
    protocol: PCIeProtocol,
    destinations: Collection[int],
    addrs: np.ndarray,
    sizes: np.ndarray,
    dsts: np.ndarray,
    is_atomic: np.ndarray,
) -> PhaseTemplate | None:
    """Pack one phase's op columns, ended by a release.

    Equivalent to one ``on_store``/``on_atomic`` call per op in order,
    then ``on_release``, on a :class:`~repro.core.egress.FinePackEgress`
    whose single-window queue starts empty and has no flush timeout.
    ``destinations`` are the queue's partition keys.  Mutates nothing.
    Returns the messages as one :class:`PhaseTemplate`, in emission
    order.

    Returns ``None`` -- before doing any work a caller could observe --
    for a phase the per-op path would reject (a size <= 0, an atomic
    larger than the protocol's max payload, a destination without a
    partition) or whose addresses leave the int64-safe range; the
    caller then runs the per-op hooks so errors surface exactly there.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
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

    ev_slot, ev_start, ev_len, ev_dst = _phase_events(
        addrs, sizes, dsts, is_atomic, config.entry_bytes, valid.size
    )

    # Pass 1: flush structure, one step per flush over the whole phase.
    f_pos, f_reason, f_absorbed, _, f_dst = _flush_search(
        ev_start, ev_len, ev_dst, config
    )

    # Pass 2: the packets, one per flush.
    n_flush = int(f_pos.size)
    if n_flush:
        # A release flush sits past its destination's last event.
        f_slot = np.where(
            f_reason == _RELEASE, -1, ev_slot[np.minimum(f_pos, ev_slot.size - 1)]
        )
        run_start, run_len, run_wid = _sub_runs(
            ev_start, ev_len, f_pos, config.entry_bytes
        )
        # Every window holds at least one piece, so the runs group into
        # exactly n_flush consecutive windows.
        win_first = np.flatnonzero(np.diff(run_wid, prepend=-1))
        n_subs = np.diff(win_first, append=run_start.size)
        data = np.add.reduceat(run_len, win_first)
    else:
        f_slot = run_start = run_len = n_subs = data = f_pos
    inner = n_subs * config.subheader_bytes + data
    # The template's per-message columns, in its field order.
    columns = [
        f_slot,
        f_dst,
        data,
        protocol.per_tlp_overhead + -(-inner // DW_BYTES) * DW_BYTES - data,
        np.full(n_flush, FINEPACK_CODE, dtype=np.uint8),
        f_absorbed,
        n_subs,
    ]
    starts, lengths = run_start, run_len
    if n_atomics:
        # Atomics bypass the queue: one TLP each, stamped at their own
        # slot and emitted right after any conflict flush they forced.
        a_slot = np.flatnonzero(is_atomic)
        a_size = sizes[a_slot]
        a_payload, a_overhead = protocol.store_wire_cost_batch(a_size)
        ones = np.ones(n_atomics, dtype=np.int64)
        atomic = [
            a_slot,
            dsts[a_slot],
            a_payload,
            a_overhead,
            np.full(n_atomics, ATOMIC_CODE, dtype=np.uint8),
            ones,
            ones,
        ]
        columns = [np.concatenate(pair) for pair in zip(columns, atomic)]
        starts = np.concatenate((starts, addrs[a_slot]))
        lengths = np.concatenate((lengths, a_size))

    # Emission order: by op slot, a conflict flush before its atomic,
    # release flushes last (already in ascending destination order).
    emit_key = 2 * np.where(columns[0] < 0, n, columns[0])
    emit_key[n_flush:] += 1
    emit = np.argsort(emit_key, kind="stable")
    # The flat ranges follow their messages into emission order.
    first = np.cumsum(columns[-1]) - columns[-1]
    counts = columns[-1][emit]
    take = np.arange(int(counts.sum())) + np.repeat(
        first[emit] - (np.cumsum(counts) - counts), counts
    )
    return PhaseTemplate(
        *(c[emit] for c in columns[:-1]), counts, starts[take], lengths[take]
    )
