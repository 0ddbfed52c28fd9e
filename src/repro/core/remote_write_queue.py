"""The FinePack remote write queue (paper Sec. IV-B, Figure 8).

A dedicated SRAM between the intra-GPU crossbar and the network egress
port.  It is partitioned per destination GPU; each partition is a
fully-associative structure indexed by address at 128-byte granularity.
Each entry holds an address tag, up to 128 B of data, and per-byte
enables.  Behaviour on an incoming store:

1. If the partition is empty, the store sets the partition's base
   address (its own address with the low ``offset_bits`` masked off)
   and occupies a fresh entry.
2. Otherwise the partition checks (a) the store falls inside the
   ``[base, base + 2**offset_bits)`` window and (b) the store plus one
   sub-header still fits the remaining payload budget.  If either
   fails, the partition *flushes* (hands its contents to the
   packetizer) and the store starts a new aggregation window.
3. On a tag hit the byte enables are OR-ed and the data overwritten in
   place -- this is the same-address coalescing the weak memory model
   permits, and the source of the "wasted bytes" savings in Fig. 10.
4. On a miss a new entry is allocated; a full partition flushes first.

Flushes are also forced by system-scoped releases (fence/kernel end),
by remote loads or atomics that overlap a buffered store, and -- in
alternative configurations -- by an inactivity timeout (not used in the
paper's evaluation, nor by default here).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from ..perf.config import scalar_mode
from .config import FinePackConfig


class FlushReason(enum.Enum):
    """Why a partition handed its contents to the packetizer."""

    PAYLOAD_FULL = "payload_full"
    ENTRIES_FULL = "entries_full"
    WINDOW_MISS = "window_miss"
    RELEASE = "release"
    LOAD_CONFLICT = "load_conflict"
    ATOMIC_CONFLICT = "atomic_conflict"
    #: Inactivity timeout (the optional policy of Sec. IV-B; off by
    #: default, as in the paper's evaluation).
    TIMEOUT = "timeout"
    #: A multi-window design evicted its least-recently-used window to
    #: make room for a new aggregation range (Sec. IV-C).
    WINDOW_EVICTION = "window_eviction"


def mask_runs(mask: int, width: int) -> list[tuple[int, int]]:
    """Maximal runs of set bits of a byte-enable mask, as (start, length).

    Only the low ``width`` bits count; runs come in ascending order.
    """
    out: list[tuple[int, int]] = []
    run_starts = mask & ~(mask << 1)
    while run_starts:
        start = (run_starts & -run_starts).bit_length() - 1
        length = 0
        while start + length < width and (mask >> (start + length)) & 1:
            length += 1
        out.append((start, length))
        run_starts &= run_starts - 1
    return out


@dataclass
class QueueEntry:
    """One 128-byte-granularity entry: tag, byte enables, data."""

    line_addr: int
    #: Byte-enable bitmask: bit ``i`` set means byte ``line_addr + i``
    #: holds valid (pending) data.
    mask: int = 0
    data: bytearray | None = None

    def enabled_bytes(self) -> int:
        return self.mask.bit_count()

    def runs(self, entry_bytes: int) -> list[tuple[int, int]]:
        """Maximal contiguous enabled runs as (start_offset, length)."""
        return mask_runs(self.mask, entry_bytes)


@dataclass
class FlushedWindow:
    """The contents of one partition flush, ready for the packetizer."""

    base_addr: int
    entries: list[QueueEntry]
    stores_absorbed: int
    reason: FlushReason


class QueuePartition:
    """One per-destination partition of the remote write queue."""

    def __init__(self, config: FinePackConfig, dst: int) -> None:
        self.config = config
        self.dst = dst
        self.base_addr: int | None = None
        self._entries: dict[int, QueueEntry] = {}
        # Mirrors the paper's "available payload length register":
        # payload budget already committed (sub-headers + data bytes).
        self._payload_cost = 0
        self._stores_absorbed = 0
        # The config's derived values are computed properties; the
        # insert path touches them per store, so cache them here.
        self._entry_bytes = config.entry_bytes
        self._subheader = config.subheader_bytes
        self._max_payload = config.max_payload_bytes
        self._max_entries = config.queue_entries_per_partition
        self._window_bytes = config.window_bytes
        self._fast_cost = not scalar_mode()

    # -- inspection -------------------------------------------------

    @property
    def empty(self) -> bool:
        return not self._entries

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def available_payload(self) -> int:
        """Remaining payload budget (max payload minus committed cost)."""
        return self._max_payload - self._payload_cost

    def _entry_cost(self, entry: QueueEntry) -> int:
        if self._fast_cost:
            # Enabled bytes plus one sub-header per maximal run, without
            # materializing the run list: popcount counts the data
            # bytes, and ``mask & ~(mask << 1)`` keeps exactly each
            # run's lowest set bit (masks never exceed entry_bytes
            # bits, so the shift cannot fabricate a run start).
            mask = entry.mask
            return (
                mask.bit_count()
                + (mask & ~(mask << 1)).bit_count() * self._subheader
            )
        runs = entry.runs(self._entry_bytes)
        return sum(length for _, length in runs) + len(runs) * self._subheader

    def matches_load(self, addr: int, size: int) -> bool:
        """Whether a load of [addr, addr+size) overlaps buffered bytes."""
        line_bytes = self.config.entry_bytes
        first = addr & ~(line_bytes - 1)
        last = (addr + size - 1) & ~(line_bytes - 1)
        for line in range(first, last + line_bytes, line_bytes):
            entry = self._entries.get(line)
            if entry is None:
                continue
            lo = max(addr, line) - line
            hi = min(addr + size, line + line_bytes) - line
            span_mask = ((1 << (hi - lo)) - 1) << lo
            if entry.mask & span_mask:
                return True
        return False

    # -- mutation ---------------------------------------------------

    def insert(
        self, addr: int, size: int, data: bytes | None = None
    ) -> list[FlushedWindow]:
        """Buffer one store; returns any flushes it forced.

        Stores that span a 128 B line boundary are split (the L1
        coalescer never emits such stores, but the queue stays correct
        if fed raw traces).
        """
        if size <= 0:
            raise ValueError(f"store size must be positive: {size}")
        line_bytes = self._entry_bytes
        flushes: list[FlushedWindow] = []
        pos = 0
        while pos < size:
            line_off = (addr + pos) % line_bytes
            chunk = min(size - pos, line_bytes - line_off)
            piece = None if data is None else data[pos : pos + chunk]
            flushes.extend(self._insert_within_line(addr + pos, chunk, piece))
            pos += chunk
        return flushes

    def _insert_within_line(
        self, addr: int, size: int, data: bytes | None
    ) -> list[FlushedWindow]:
        flushes: list[FlushedWindow] = []
        base = self.base_addr
        if base is not None:
            in_window = base <= addr < base + self._window_bytes
            # The paper's conservative admission check: incoming length
            # plus one sub-header must fit the available payload.
            fits = size + self._subheader <= self._max_payload - self._payload_cost
            line = addr & ~(self._entry_bytes - 1)
            has_room = line in self._entries or len(self._entries) < self._max_entries
            if not in_window:
                flushes.append(self._flush(FlushReason.WINDOW_MISS))
            elif not fits:
                flushes.append(self._flush(FlushReason.PAYLOAD_FULL))
            elif not has_room:
                flushes.append(self._flush(FlushReason.ENTRIES_FULL))

        if self.base_addr is None:
            self.base_addr = addr & ~(self._window_bytes - 1)

        line = addr & ~(self._entry_bytes - 1)
        off = addr - line
        entry = self._entries.get(line)
        if entry is None:
            entry = QueueEntry(line_addr=line)
            self._entries[line] = entry

        old_cost = self._entry_cost(entry) if entry.mask else 0
        span_mask = ((1 << size) - 1) << off
        entry.mask |= span_mask
        if data is not None:
            if entry.data is None:
                entry.data = bytearray(self._entry_bytes)
            entry.data[off : off + size] = data
        self._payload_cost += self._entry_cost(entry) - old_cost
        self._stores_absorbed += 1
        return flushes

    def _flush(self, reason: FlushReason) -> FlushedWindow:
        assert self.base_addr is not None
        entries = sorted(self._entries.values(), key=lambda e: e.line_addr)
        window = FlushedWindow(
            base_addr=self.base_addr,
            entries=entries,
            stores_absorbed=self._stores_absorbed,
            reason=reason,
        )
        self.base_addr = None
        self._entries = {}
        self._payload_cost = 0
        self._stores_absorbed = 0
        return window

    def flush(self, reason: FlushReason) -> FlushedWindow | None:
        """Flush the partition if non-empty."""
        if self.empty:
            return None
        return self._flush(reason)


class MultiWindowPartition:
    """A partition holding several concurrent aggregation windows.

    The Sec. IV-C extension: "maintain multiple open outer transactions
    for each target GPU so that accesses to data structures spanning
    two aligned regions do not thrash the remote write queue."  The
    partition's entry budget is divided evenly among ``windows``
    sub-partitions; an incoming store joins the window covering its
    address, opens an idle one, or -- when all are busy -- evicts the
    least-recently-used window.
    """

    def __init__(self, config: FinePackConfig, dst: int, windows: int) -> None:
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        per_window = config.queue_entries_per_partition // windows
        if per_window < 1:
            raise ValueError(
                f"{windows} windows leave no entries per window "
                f"(partition has {config.queue_entries_per_partition})"
            )
        sub_config = dataclasses.replace(
            config, queue_entries_per_partition=per_window
        )
        self.config = config
        self.dst = dst
        self._subs = [QueuePartition(sub_config, dst) for _ in range(windows)]
        self._lru: list[int] = list(range(windows))
        self._window_bytes = config.window_bytes

    @property
    def empty(self) -> bool:
        return all(s.empty for s in self._subs)

    @property
    def entry_count(self) -> int:
        return sum(s.entry_count for s in self._subs)

    def _touch(self, idx: int) -> None:
        self._lru.remove(idx)
        self._lru.append(idx)

    def insert(
        self, addr: int, size: int, data: bytes | None = None
    ) -> list[FlushedWindow]:
        # Split at window boundaries before routing: deciding by the
        # start address alone would let the tail of a boundary-spanning
        # store reopen a base some other sub-window already covers, and
        # two windows holding the same line deliver same-address stores
        # out of order at flush time.
        flushes: list[FlushedWindow] = []
        window_bytes = self._window_bytes
        pos = 0
        while pos < size:
            offset = (addr + pos) % window_bytes
            chunk = min(size - pos, window_bytes - offset)
            piece = None if data is None else data[pos : pos + chunk]
            flushes.extend(self._insert_in_window(addr + pos, chunk, piece))
            pos += chunk
        return flushes

    def _insert_in_window(
        self, addr: int, size: int, data: bytes | None
    ) -> list[FlushedWindow]:
        """Route one window-contained piece to its aggregation window."""
        flushes: list[FlushedWindow] = []
        # A window already covering this address wins.
        for idx, sub in enumerate(self._subs):
            if sub.base_addr is not None and self.config.in_window(
                sub.base_addr, addr
            ):
                self._touch(idx)
                flushes = sub.insert(addr, size, data)
                break
        else:
            # Otherwise an idle window, else evict the LRU one.
            for idx in self._lru:
                if self._subs[idx].empty:
                    break
            else:
                idx = self._lru[0]
                window = self._subs[idx].flush(FlushReason.WINDOW_EVICTION)
                if window is not None:
                    flushes.append(window)
            self._touch(idx)
            flushes.extend(self._subs[idx].insert(addr, size, data))
        return flushes

    def flush(self, reason: FlushReason) -> list[FlushedWindow]:
        out = []
        for sub in self._subs:
            window = sub.flush(reason)
            if window is not None:
                out.append(window)
        return out

    def matches_load(self, addr: int, size: int) -> bool:
        return any(s.matches_load(addr, size) for s in self._subs)


def _as_windows(result) -> list[FlushedWindow]:
    """Normalize a flush result: single partitions return one window or
    ``None``; multi-window partitions return a list."""
    if result is None:
        return []
    if isinstance(result, FlushedWindow):
        return [result]
    return list(result)


class RemoteWriteQueue:
    """The per-GPU remote write queue: one partition per peer GPU.

    With ``windows > 1`` each per-destination partition becomes a
    :class:`MultiWindowPartition` holding that many concurrent
    aggregation windows (Sec. IV-C), with the same total entry budget.
    """

    def __init__(
        self, config: FinePackConfig, gpu: int, n_gpus: int, windows: int = 1
    ) -> None:
        if not 0 <= gpu < n_gpus:
            raise ValueError(f"gpu {gpu} outside system of {n_gpus}")
        self.config = config
        self.gpu = gpu
        if windows == 1:
            self.partitions = {
                d: QueuePartition(config, d) for d in range(n_gpus) if d != gpu
            }
        else:
            self.partitions = {
                d: MultiWindowPartition(config, d, windows)
                for d in range(n_gpus)
                if d != gpu
            }

    def partition(self, dst: int):
        p = self.partitions.get(dst)
        if p is None:
            raise KeyError(
                f"GPU {self.gpu} has no partition for destination {dst}"
            )
        return p

    def insert(
        self, addr: int, size: int, dst: int, data: bytes | None = None
    ) -> list[tuple[int, FlushedWindow]]:
        """Buffer a store to ``dst``; returns (dst, flush) pairs."""
        return [(dst, w) for w in self.partition(dst).insert(addr, size, data)]

    def flush_all(self, reason: FlushReason) -> list[tuple[int, FlushedWindow]]:
        """Flush every partition (system-scoped release semantics)."""
        out: list[tuple[int, FlushedWindow]] = []
        for dst in sorted(self.partitions):
            for window in _as_windows(self.partitions[dst].flush(reason)):
                out.append((dst, window))
        return out

    def flush_destination(
        self, dst: int, reason: FlushReason
    ) -> list[tuple[int, FlushedWindow]]:
        """Flush one destination's partition (timeout / conflict paths)."""
        return [
            (dst, w) for w in _as_windows(self.partition(dst).flush(reason))
        ]

    def flush_on_load(self, addr: int, size: int, dst: int) -> list[tuple[int, FlushedWindow]]:
        """Same-address load-store ordering: flush if the load hits.

        The paper allows either individual-store flushing or a whole
        partition flush; we implement the partition flush.
        """
        p = self.partition(dst)
        if p.matches_load(addr, size):
            return self.flush_destination(dst, FlushReason.LOAD_CONFLICT)
        return []

    def pending_entries(self) -> int:
        """Occupied entries across all partitions (observability hook)."""
        return sum(p.entry_count for p in self.partitions.values())

    def total_sram_data_bytes(self) -> int:
        return len(self.partitions) * self.config.partition_data_bytes
