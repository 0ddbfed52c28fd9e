"""Egress engines: the GPU-to-interconnect interface for each paradigm.

Three engines implement :class:`EgressEngine`, the interface between a
GPU and its network egress port:

* :class:`PassthroughEgress` -- today's hardware: every remote store
  leaves immediately as its own memory-write TLP (the paper's "P2P
  stores" baseline).
* :class:`WriteCombiningEgress` -- a conventional write-combining
  buffer at cache-line granularity (the "write combining alone" point
  the paper compares against: FinePack moves ~24% less data).  Each
  flushed line still emits one TLP per contiguous run; there is no
  header sharing across lines.
* :class:`FinePackEgress` -- the paper's design: the partitioned remote
  write queue feeding the packetizer.

All engines emit :class:`WireMessage` objects per op, annotated with
the byte ranges delivered (``meta["range1"]``/``meta["ranges"]``); the
system turns them into a :class:`MessageBatch`, the one format its
transports and byte ledger read.  The stateless ones also emit a whole
phase as one :class:`MessageBatch` directly, through one entry point
``phase_batch(key, addrs, sizes, dsts, times, is_atomic,
release_time)``: the passthrough engine from the op columns, FinePack
from its phase template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..gpu.coalescer import LINE_BYTES
from ..interconnect.message import MessageKind, WireMessage
from ..interconnect.pcie import PCIeProtocol
from ..perf import profiler as _prof
from ..perf.batch import ATOMIC_CODE, STORE_CODE, MessageBatch
from .config import FinePackConfig
from .packetizer import Packetizer
from .phase_kernel import PhaseTemplate, pack_phase
from .remote_write_queue import (
    FlushedWindow,
    FlushReason,
    RemoteWriteQueue,
    mask_runs,
)


class EgressEngine(Protocol):
    """Interface between a GPU and its network egress port.

    Implementations translate a stream of remote-store/sync events into
    :class:`WireMessage` objects.  All methods return the messages made
    ready by the event (possibly none).
    """

    def on_store(
        self, addr: int, size: int, dst: int, time: float, data: bytes | None = None
    ) -> list[WireMessage]:
        """A remote store reached the egress port."""
        ...

    def on_atomic(self, addr: int, size: int, dst: int, time: float) -> list[WireMessage]:
        """A remote atomic reached the egress port (never coalesced)."""
        ...

    def on_remote_load(self, addr: int, size: int, dst: int, time: float) -> list[WireMessage]:
        """A remote load passed the egress port (may force flushes)."""
        ...

    def on_release(self, time: float) -> list[WireMessage]:
        """A system-scoped release (fence or kernel end) executed."""
        ...


def _single_range(addr: int, size: int) -> dict:
    """Scalar range annotation: cheaper than per-message numpy arrays.

    :meth:`MessageBatch.from_messages` reads either ``meta["range1"] =
    (addr, size)`` for single-range messages or ``meta["ranges"] =
    (starts, lengths)`` arrays for packed ones.
    """
    return {"range1": (addr, size)}


@dataclass
class PassthroughEgress:
    """Raw peer-to-peer stores: one TLP per store, no buffering."""

    protocol: PCIeProtocol
    src: int

    def on_store(
        self, addr: int, size: int, dst: int, time: float, data: bytes | None = None
    ) -> list[WireMessage]:
        payload, overhead = self.protocol.store_wire_cost(size)
        return [
            WireMessage(
                src=self.src,
                dst=dst,
                payload_bytes=payload,
                overhead_bytes=overhead,
                kind=MessageKind.STORE,
                issue_time=time,
                stores_packed=1,
                meta=_single_range(addr, size),
            )
        ]

    def on_atomic(self, addr: int, size: int, dst: int, time: float) -> list[WireMessage]:
        payload, overhead = self.protocol.store_wire_cost(size)
        return [
            WireMessage(
                src=self.src,
                dst=dst,
                payload_bytes=payload,
                overhead_bytes=overhead,
                kind=MessageKind.ATOMIC,
                issue_time=time,
                stores_packed=1,
                meta=_single_range(addr, size),
            )
        ]

    def on_remote_load(self, addr: int, size: int, dst: int, time: float) -> list[WireMessage]:
        return []

    def on_release(self, time: float) -> list[WireMessage]:
        return []

    def phase_batch(
        self,
        key: bytes,
        addrs: np.ndarray,
        sizes: np.ndarray,
        dsts: np.ndarray,
        times: np.ndarray,
        is_atomic: np.ndarray,
        release_time: float,
    ) -> MessageBatch | None:
        """Whole-phase store/atomic stream as one :class:`MessageBatch`.

        Semantically one :meth:`on_store`/:meth:`on_atomic` call per
        element, in order; the engine is stateless so the batch is just
        the concatenation of the per-op messages, and ``key`` and
        ``release_time`` go unused (its release emits nothing).
        Returns ``None`` when any size is invalid -- the caller then
        replays the ops through the scalar path so the error matches
        the scalar run exactly.
        """
        n = int(sizes.size)
        if n and (
            int(sizes.min()) <= 0 or int(sizes.max()) > self.protocol.max_payload
        ):
            return None
        payload, overhead = self.protocol.store_wire_cost_batch(sizes)
        return MessageBatch(
            src=self.src,
            dst=np.asarray(dsts, dtype=np.int64),
            payload=payload,
            overhead=overhead,
            kind=np.where(is_atomic, ATOMIC_CODE, STORE_CODE).astype(np.uint8),
            issue=np.asarray(times, dtype=np.float64),
            packed=np.ones(n, dtype=np.int64),
            starts=np.asarray(addrs, dtype=np.int64),
            lengths=np.asarray(sizes, dtype=np.int64),
        )


class WriteCombiningEgress:
    """Cache-line-granularity write combining (no FinePack packing).

    Per destination, a FIFO of up to ``entries`` open 128 B lines; a
    store to an open line merges, a store to a new line evicts the
    oldest when full.  An evicted/flushed line emits one TLP per
    contiguous run of touched bytes.  ``sector_bytes`` models GPS-style
    replication (paper Sec. VI-B): every run is rounded out to sector
    boundaries before transmission, over-transferring the untouched
    bytes within each touched sector ("unneeded transfers within a
    cacheline").
    """

    def __init__(
        self,
        protocol: PCIeProtocol,
        src: int,
        n_gpus: int,
        entries: int = 64,
        sector_bytes: int = 1,
    ) -> None:
        if LINE_BYTES % sector_bytes:
            raise ValueError(
                f"sector_bytes {sector_bytes} must divide the "
                f"{LINE_BYTES} B line"
            )
        self.protocol = protocol
        self.src = src
        self.entries = entries
        self.sector_bytes = sector_bytes
        # dst -> {line_addr: (mask, stores_absorbed)}
        self._open: dict[int, dict[int, tuple[int, int]]] = {
            d: {} for d in range(n_gpus) if d != src
        }

    def _expand_to_sectors(self, mask: int) -> int:
        """Round the byte-enable mask out to sector boundaries."""
        if self.sector_bytes == 1:
            return mask
        sector_mask = (1 << self.sector_bytes) - 1
        out = 0
        for s in range(LINE_BYTES // self.sector_bytes):
            if mask & (sector_mask << (s * self.sector_bytes)):
                out |= sector_mask << (s * self.sector_bytes)
        return out

    def _emit_line(
        self, dst: int, line_addr: int, mask: int, absorbed: int, time: float
    ) -> list[WireMessage]:
        msgs = []
        runs = mask_runs(self._expand_to_sectors(mask), LINE_BYTES)
        for i, (off, length) in enumerate(runs):
            payload, overhead = self.protocol.store_wire_cost(length)
            msgs.append(
                WireMessage(
                    src=self.src,
                    dst=dst,
                    payload_bytes=payload,
                    overhead_bytes=overhead,
                    kind=MessageKind.COMBINED_STORE,
                    issue_time=time,
                    # Attribute the absorbed stores to the first run.
                    stores_packed=absorbed if i == 0 else 0,
                    meta=_single_range(line_addr + off, length),
                )
            )
        return msgs

    def on_store(
        self, addr: int, size: int, dst: int, time: float, data: bytes | None = None
    ) -> list[WireMessage]:
        msgs: list[WireMessage] = []
        pos = 0
        while pos < size:
            line_off = (addr + pos) % LINE_BYTES
            chunk = min(size - pos, LINE_BYTES - line_off)
            msgs.extend(self._store_within_line(addr + pos, chunk, dst, time))
            pos += chunk
        return msgs

    def _store_within_line(
        self, addr: int, size: int, dst: int, time: float
    ) -> list[WireMessage]:
        open_lines = self._open[dst]
        line = addr & ~(LINE_BYTES - 1)
        off = addr - line
        msgs: list[WireMessage] = []
        if line not in open_lines and len(open_lines) >= self.entries:
            victim = next(iter(open_lines))
            mask, absorbed = open_lines.pop(victim)
            msgs.extend(self._emit_line(dst, victim, mask, absorbed, time))
        mask, absorbed = open_lines.get(line, (0, 0))
        mask |= ((1 << size) - 1) << off
        open_lines[line] = (mask, absorbed + 1)
        return msgs

    def on_atomic(self, addr: int, size: int, dst: int, time: float) -> list[WireMessage]:
        msgs: list[WireMessage] = []
        line = addr & ~(LINE_BYTES - 1)
        entry = self._open[dst].pop(line, None)
        if entry is not None:
            msgs.extend(self._emit_line(dst, line, entry[0], entry[1], time))
        payload, overhead = self.protocol.store_wire_cost(size)
        msgs.append(
            WireMessage(
                src=self.src,
                dst=dst,
                payload_bytes=payload,
                overhead_bytes=overhead,
                kind=MessageKind.ATOMIC,
                issue_time=time,
                stores_packed=1,
                meta=_single_range(addr, size),
            )
        )
        return msgs

    def on_remote_load(self, addr: int, size: int, dst: int, time: float) -> list[WireMessage]:
        msgs: list[WireMessage] = []
        first = addr & ~(LINE_BYTES - 1)
        last = (addr + size - 1) & ~(LINE_BYTES - 1)
        for line in range(first, last + LINE_BYTES, LINE_BYTES):
            entry = self._open[dst].pop(line, None)
            if entry is not None:
                msgs.extend(self._emit_line(dst, line, entry[0], entry[1], time))
        return msgs

    def on_release(self, time: float) -> list[WireMessage]:
        msgs: list[WireMessage] = []
        for dst, open_lines in self._open.items():
            for line, (mask, absorbed) in sorted(open_lines.items()):
                msgs.extend(self._emit_line(dst, line, mask, absorbed, time))
            open_lines.clear()
        return msgs


#: Retained phase templates per engine; enough for every distinct
#: phase shape of the shipped workloads with room to spare.
_MEMO_MAX_ENTRIES = 128


class FinePackEgress:
    """The FinePack engine: remote write queue + packetizer."""

    def __init__(
        self,
        config: FinePackConfig,
        protocol: PCIeProtocol,
        src: int,
        n_gpus: int,
        flush_timeout_ns: float | None = None,
        windows: int = 1,
    ) -> None:
        """``flush_timeout_ns`` enables the optional inactivity-timeout
        flush of Sec. IV-B (the paper evaluates without it); ``windows``
        selects the multi-window partition design of Sec. IV-C."""
        if flush_timeout_ns is not None and flush_timeout_ns <= 0:
            raise ValueError(f"flush_timeout_ns must be positive: {flush_timeout_ns}")
        self.config = config
        self.protocol = protocol
        self.src = src
        self.flush_timeout_ns = flush_timeout_ns
        self.queue = RemoteWriteQueue(config, src, n_gpus, windows=windows)
        self.packetizer = Packetizer(config, protocol)
        self._last_activity: dict[int, float] = {}
        self._windows = windows
        #: Content-addressed phase templates (see :meth:`phase_batch`).
        self._memo: dict[bytes, PhaseTemplate] = {}
        #: Optional :class:`repro.obs.Tracer`; set by the system when a
        #: run is traced.  Every hook below is guarded by a None check.
        self.tracer = None

    def _windows_to_messages(
        self, windows: list[tuple[int, FlushedWindow]], time: float
    ) -> list[WireMessage]:
        msgs = []
        prof = _prof.ACTIVE
        if prof is not None and windows:
            prof.begin("packetizer_rwq")
        for dst, window in windows:
            packet = self.packetizer.packetize(window)
            msgs.append(self.packetizer.to_wire_message(packet, self.src, dst, time))
            if self.tracer is not None:
                self.tracer.rwq_flush(
                    self.src,
                    dst,
                    window,
                    data_bytes=sum(e.enabled_bytes() for e in window.entries),
                    time_ns=time,
                    pending_entries=self.queue.partition(dst).entry_count,
                )
        if prof is not None and windows:
            prof.end()
        return msgs

    def _expire_idle(self, now: float) -> list[WireMessage]:
        """Flush partitions idle past the timeout, stamped at the time
        the hardware's timer would actually have fired."""
        if self.flush_timeout_ns is None:
            return []
        msgs: list[WireMessage] = []
        for dst, last in list(self._last_activity.items()):
            deadline = last + self.flush_timeout_ns
            if deadline <= now and not self.queue.partition(dst).empty:
                msgs.extend(
                    self._windows_to_messages(
                        self.queue.flush_destination(dst, FlushReason.TIMEOUT),
                        deadline,
                    )
                )
                del self._last_activity[dst]
        return msgs

    def on_store(
        self, addr: int, size: int, dst: int, time: float, data: bytes | None = None
    ) -> list[WireMessage]:
        msgs = self._expire_idle(time)
        self._last_activity[dst] = time
        prof = _prof.ACTIVE
        if prof is not None:
            prof.begin("packetizer_rwq")
        windows = self.queue.insert(addr, size, dst, data)
        if prof is not None:
            prof.end()
        msgs.extend(self._windows_to_messages(windows, time))
        if self.tracer is not None:
            self.tracer.rwq_enqueue(
                self.src,
                dst,
                addr,
                size,
                time_ns=time,
                pending_entries=self.queue.partition(dst).entry_count,
            )
        return msgs

    def on_atomic(self, addr: int, size: int, dst: int, time: float) -> list[WireMessage]:
        """Atomics are never coalesced (Sec. IV-C): flush any buffered
        store to the same address, then forward the atomic directly."""
        msgs: list[WireMessage] = self._expire_idle(time)
        partition = self.queue.partition(dst)
        if partition.matches_load(addr, size):
            msgs.extend(
                self._windows_to_messages(
                    self.queue.flush_destination(dst, FlushReason.ATOMIC_CONFLICT),
                    time,
                )
            )
        payload, overhead = self.protocol.store_wire_cost(size)
        msgs.append(
            WireMessage(
                src=self.src,
                dst=dst,
                payload_bytes=payload,
                overhead_bytes=overhead,
                kind=MessageKind.ATOMIC,
                issue_time=time,
                stores_packed=1,
                meta=_single_range(addr, size),
            )
        )
        return msgs

    def on_remote_load(self, addr: int, size: int, dst: int, time: float) -> list[WireMessage]:
        return self._windows_to_messages(
            self.queue.flush_on_load(addr, size, dst), time
        )

    def on_release(self, time: float) -> list[WireMessage]:
        msgs = self._expire_idle(time)
        self._last_activity.clear()
        msgs.extend(
            self._windows_to_messages(self.queue.flush_all(FlushReason.RELEASE), time)
        )
        return msgs

    # -- columnar phase entry + memoization -------------------------

    def phase_batch(
        self,
        key: bytes,
        addrs: np.ndarray,
        sizes: np.ndarray,
        dsts: np.ndarray,
        times: np.ndarray,
        is_atomic: np.ndarray,
        release_time: float,
    ) -> MessageBatch | None:
        """One whole phase's op columns, ended by a release, as one
        :class:`MessageBatch`: the phase's template with this phase's
        stamps, and no per-message object.

        Semantically identical to calling :meth:`on_store` /
        :meth:`on_atomic` per element in order followed by
        :meth:`on_release` at ``release_time``: the same messages in
        the same order, stamped from the same op slots.  The first
        sight of a phase runs the columnar phase kernel
        (:func:`repro.core.phase_kernel.pack_phase`) and records its
        :class:`~repro.core.phase_kernel.PhaseTemplate` under ``key``;
        a phase whose ``key`` was already packed this run replays it
        (content-addressed memoization; collectives and stencil
        workloads repeat the same store stream every iteration).
        Replay is exact because FinePack egress is a pure function of
        the op columns within one phase: the system-scoped release that
        ends every phase flushes all partitions and clears activity
        state, so no aggregation window survives across phases.  Issue
        times enter only as stamps, each message's from the op slot
        that stamped it.

        ``key`` must determine the op columns (``addrs``, ``sizes``,
        ``dsts``, ``is_atomic``; not the times).  The store paradigms
        pass :attr:`KernelPhase.digest`, which covers the phase's
        stores and atomics: FinePack never filters stores, so its op
        stream is a function of those two batches alone.  (GPS, the
        one paradigm that filters, drives a write-combining engine
        without this entry.)

        Returns ``None`` when this engine cannot guarantee phase-scoped
        purity -- an inactivity-timeout flush policy, a multi-window
        partition design (its LRU state survives releases), an attached
        tracer, buffered state left over from a non-release flush, or
        instance-patched per-op hooks (validation harnesses wrap
        ``on_store`` to inject faults) -- or when the kernel declines
        input the per-op hooks would reject, and the caller must use
        the scalar per-op path (which then raises exactly as before).
        """
        template = self._template(key, addrs, sizes, dsts, is_atomic)
        if template is None:
            return None
        return template.batch(self.src, times, release_time)

    def _template(
        self,
        key: bytes,
        addrs: np.ndarray,
        sizes: np.ndarray,
        dsts: np.ndarray,
        is_atomic: np.ndarray,
    ) -> PhaseTemplate | None:
        """The template of the phase keyed ``key``, packing it on first
        sight; ``None`` when the engine or the kernel declines."""
        if (
            self.tracer is not None
            or self.flush_timeout_ns is not None
            or self._windows != 1
            or self.queue.pending_entries()
            or {"on_store", "on_atomic", "on_release"} & self.__dict__.keys()
        ):
            return None
        template = self._memo.get(key)
        if template is not None:
            return template
        prof = _prof.ACTIVE
        if prof is not None:
            prof.begin("packetizer_rwq")
        template = pack_phase(
            self.config,
            self.protocol,
            self.queue.partitions.keys(),
            addrs,
            sizes,
            dsts,
            is_atomic,
        )
        if prof is not None:
            prof.end()
        if template is not None:
            if len(self._memo) >= _MEMO_MAX_ENTRIES:
                self._memo.pop(next(iter(self._memo)))
            self._memo[key] = template
        return template
