"""Egress engines: the GPU-to-interconnect interface for each paradigm.

Three engines implement :class:`repro.gpu.gpu.EgressEngine`:

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

All engines emit :class:`WireMessage` objects annotated with the byte
ranges delivered (``meta["range1"]``/``meta["ranges"]``) so the metrics ledger can classify
payload bytes as useful or wasted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ..interconnect.message import MessageKind, WireMessage
from ..interconnect.pcie import PCIeProtocol
from ..perf import profiler as _prof
from ..perf.batch import ATOMIC_CODE, STORE_CODE, MessageBatch
from .config import FinePackConfig
from .packetizer import Packetizer
from .phase_kernel import pack_phase
from .remote_write_queue import FlushedWindow, FlushReason, RemoteWriteQueue


@dataclass
class EgressStats:
    stores_in: int = 0
    atomics_in: int = 0
    messages_out: int = 0
    releases: int = 0

    def stores_per_message(self) -> float:
        return self.stores_in / self.messages_out if self.messages_out else 0.0


def _single_range(addr: int, size: int) -> dict:
    """Scalar range annotation: cheaper than per-message numpy arrays.

    The metrics ledger accepts either ``meta["range1"] = (addr, size)``
    for single-range messages or ``meta["ranges"] = (starts, lengths)``
    arrays for packed ones.
    """
    return {"range1": (addr, size)}


@dataclass
class PassthroughEgress:
    """Raw peer-to-peer stores: one TLP per store, no buffering."""

    protocol: PCIeProtocol
    src: int
    stats: EgressStats = field(default_factory=EgressStats)

    def on_store(
        self, addr: int, size: int, dst: int, time: float, data: bytes | None = None
    ) -> list[WireMessage]:
        self.stats.stores_in += 1
        payload, overhead = self.protocol.store_wire_cost(size)
        self.stats.messages_out += 1
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
        self.stats.atomics_in += 1
        payload, overhead = self.protocol.store_wire_cost(size)
        self.stats.messages_out += 1
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
        self.stats.releases += 1
        return []

    def batch_ops(
        self,
        addrs: np.ndarray,
        sizes: np.ndarray,
        dsts: np.ndarray,
        times: np.ndarray,
        is_atomic: np.ndarray,
    ) -> MessageBatch | None:
        """Whole-phase store/atomic stream as one :class:`MessageBatch`.

        Semantically one :meth:`on_store`/:meth:`on_atomic` call per
        element, in order; the engine is stateless so the batch is just
        the concatenation of the per-op messages.  Returns ``None``
        when any size is invalid -- the caller then replays the ops
        through the scalar path so the error (and the stats mutated
        before it) match the scalar run exactly.
        """
        n = int(sizes.size)
        if n and (
            int(sizes.min()) <= 0 or int(sizes.max()) > self.protocol.max_payload
        ):
            return None
        payload, overhead = self.protocol.store_wire_cost_batch(sizes)
        n_atomic = int(is_atomic.sum())
        self.stats.stores_in += n - n_atomic
        self.stats.atomics_in += n_atomic
        self.stats.messages_out += n
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
    contiguous run of touched bytes.  Two transfer-granularity options
    model GPS-style replication (paper Sec. VI-B):

    * ``sector_bytes`` rounds every run out to sector boundaries before
      transmission, over-transferring the untouched bytes within each
      touched sector ("unneeded transfers within a cacheline");
    * ``full_line=True`` ships the whole 128 B line as one TLP.
    """

    def __init__(
        self,
        protocol: PCIeProtocol,
        src: int,
        n_gpus: int,
        entries: int = 64,
        line_bytes: int = 128,
        full_line: bool = False,
        sector_bytes: int = 1,
    ) -> None:
        if line_bytes % sector_bytes:
            raise ValueError(
                f"sector_bytes {sector_bytes} must divide line_bytes {line_bytes}"
            )
        self.protocol = protocol
        self.src = src
        self.entries = entries
        self.line_bytes = line_bytes
        self.full_line = full_line
        self.sector_bytes = sector_bytes
        # dst -> {line_addr: (mask, stores_absorbed)}
        self._open: dict[int, dict[int, tuple[int, int]]] = {
            d: {} for d in range(n_gpus) if d != src
        }
        self.stats = EgressStats()

    def _expand_to_sectors(self, mask: int) -> int:
        """Round the byte-enable mask out to sector boundaries."""
        if self.sector_bytes == 1:
            return mask
        sector_mask = (1 << self.sector_bytes) - 1
        out = 0
        for s in range(self.line_bytes // self.sector_bytes):
            if mask & (sector_mask << (s * self.sector_bytes)):
                out |= sector_mask << (s * self.sector_bytes)
        return out

    def _runs(self, mask: int) -> list[tuple[int, int]]:
        out = []
        starts = mask & ~(mask << 1)
        while starts:
            s = (starts & -starts).bit_length() - 1
            n = 0
            while s + n < self.line_bytes and (mask >> (s + n)) & 1:
                n += 1
            out.append((s, n))
            starts &= starts - 1
        return out

    def _emit_line(
        self, dst: int, line_addr: int, mask: int, absorbed: int, time: float
    ) -> list[WireMessage]:
        msgs = []
        if self.full_line:
            payload, overhead = self.protocol.store_wire_cost(self.line_bytes)
            self.stats.messages_out += 1
            return [
                WireMessage(
                    src=self.src,
                    dst=dst,
                    payload_bytes=payload,
                    overhead_bytes=overhead,
                    kind=MessageKind.COMBINED_STORE,
                    issue_time=time,
                    stores_packed=absorbed,
                    meta=_single_range(line_addr, self.line_bytes),
                )
            ]
        runs = self._runs(self._expand_to_sectors(mask))
        for i, (off, length) in enumerate(runs):
            payload, overhead = self.protocol.store_wire_cost(length)
            self.stats.messages_out += 1
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
            line_off = (addr + pos) % self.line_bytes
            chunk = min(size - pos, self.line_bytes - line_off)
            msgs.extend(self._store_within_line(addr + pos, chunk, dst, time))
            pos += chunk
        return msgs

    def _store_within_line(
        self, addr: int, size: int, dst: int, time: float
    ) -> list[WireMessage]:
        self.stats.stores_in += 1
        open_lines = self._open[dst]
        line = addr & ~(self.line_bytes - 1)
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
        self.stats.atomics_in += 1
        msgs: list[WireMessage] = []
        line = addr & ~(self.line_bytes - 1)
        entry = self._open[dst].pop(line, None)
        if entry is not None:
            msgs.extend(self._emit_line(dst, line, entry[0], entry[1], time))
        payload, overhead = self.protocol.store_wire_cost(size)
        self.stats.messages_out += 1
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
        first = addr & ~(self.line_bytes - 1)
        last = (addr + size - 1) & ~(self.line_bytes - 1)
        for line in range(first, last + self.line_bytes, self.line_bytes):
            entry = self._open[dst].pop(line, None)
            if entry is not None:
                msgs.extend(self._emit_line(dst, line, entry[0], entry[1], time))
        return msgs

    def on_release(self, time: float) -> list[WireMessage]:
        self.stats.releases += 1
        msgs: list[WireMessage] = []
        for dst, open_lines in self._open.items():
            for line, (mask, absorbed) in sorted(open_lines.items()):
                msgs.extend(self._emit_line(dst, line, mask, absorbed, time))
            open_lines.clear()
        return msgs


@dataclass(frozen=True)
class _PartitionDelta:
    """One phase's stat mutations on a single destination partition."""

    stores_in: int
    store_hits: int
    packets: int
    #: (reason, count) pairs in the order new reasons first appeared,
    #: so replaying preserves the flushes dict's insertion order.
    flushes: tuple[tuple[FlushReason, int], ...]
    stores_per_packet: tuple[int, ...]


@dataclass(frozen=True)
class _PhaseTemplate:
    """The recorded outcome of packetizing one phase's op columns.

    FinePack egress output is a pure function of the op columns within
    one phase: a system-scoped release bounds every phase, flushing all
    partitions and clearing activity state, so no aggregation window
    survives across phases.  Issue times enter only as message stamps
    -- each message records which op slot stamped it (``-1`` for
    release-flushed messages, stamped with the release time), and a
    replay re-stamps fresh times onto structurally identical messages.
    """

    #: (op slot, message) pairs in emission order; slot ``-1`` means
    #: the message was flushed by the end-of-phase release.
    messages: tuple[tuple[int, WireMessage], ...]
    stores_in: int
    atomics_in: int
    messages_out: int
    packets_built: int
    partition_deltas: tuple[tuple[int, _PartitionDelta], ...]


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
        self.stats = EgressStats()
        self._last_activity: dict[int, float] = {}
        self._windows = windows
        #: Content-addressed phase templates (see :meth:`phase_ops`).
        self._memo: dict[bytes, _PhaseTemplate] = {}
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
            self.stats.messages_out += 1
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
        self.stats.stores_in += 1
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
        self.stats.atomics_in += 1
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
        self.stats.messages_out += 1
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
        self.stats.releases += 1
        msgs = self._expire_idle(time)
        self._last_activity.clear()
        msgs.extend(
            self._windows_to_messages(self.queue.flush_all(FlushReason.RELEASE), time)
        )
        return msgs

    # -- columnar phase entry + memoization -------------------------

    def phase_ops(
        self,
        addrs: np.ndarray,
        sizes: np.ndarray,
        dsts: np.ndarray,
        times: np.ndarray,
        is_atomic: np.ndarray,
        release_time: float,
    ) -> list[WireMessage] | None:
        """One whole phase's op columns, ended by a release.

        Semantically identical to calling :meth:`on_store` /
        :meth:`on_atomic` per element in order followed by
        :meth:`on_release` at ``release_time`` -- same messages, same
        stats mutation order, same float stamps.  The first sight of a
        phase runs the columnar phase kernel
        (:func:`repro.core.phase_kernel.pack_phase`); phases whose op
        columns were already packed this run replay the recorded
        template with fresh issue times (content-addressed
        memoization; collectives and stencil workloads repeat the same
        store stream every iteration).

        Returns ``None`` when this engine cannot guarantee phase-scoped
        purity -- an inactivity-timeout flush policy, a multi-window
        partition design (its LRU state survives releases), an attached
        tracer, buffered state left over from a non-release flush, or
        instance-patched per-op hooks (validation harnesses wrap
        ``on_store`` to inject faults) -- or when the kernel declines
        input the per-op hooks would reject, and the caller must use
        the scalar per-op path (which then raises exactly as before).
        """
        if (
            self.tracer is not None
            or self.flush_timeout_ns is not None
            or self._windows != 1
            or self.queue.pending_entries()
            or {"on_store", "on_atomic", "on_release"} & self.__dict__.keys()
        ):
            return None
        digest = hashlib.blake2b(digest_size=16)
        # hashlib consumes buffer-protocol objects directly, so feeding
        # the (C-contiguous) columns avoids a tobytes() copy per array
        # -- and never faults mmap-backed pages twice.
        digest.update(np.ascontiguousarray(addrs, dtype=np.int64))
        digest.update(np.ascontiguousarray(sizes, dtype=np.int64))
        digest.update(np.ascontiguousarray(dsts, dtype=np.int64))
        digest.update(np.ascontiguousarray(is_atomic, dtype=bool))
        key = digest.digest()
        template = self._memo.get(key)
        if template is None:
            recorded = self._record_phase(
                addrs, sizes, dsts, times, is_atomic, release_time
            )
            if recorded is None:
                return None
            msgs, template = recorded
            if len(self._memo) >= _MEMO_MAX_ENTRIES:
                self._memo.pop(next(iter(self._memo)))
            self._memo[key] = template
            return msgs
        return self._replay_phase(template, times, release_time)

    def _record_phase(
        self,
        addrs: np.ndarray,
        sizes: np.ndarray,
        dsts: np.ndarray,
        times: np.ndarray,
        is_atomic: np.ndarray,
        release_time: float,
    ) -> tuple[list[WireMessage], _PhaseTemplate] | None:
        """Pack a first-seen phase with the columnar phase kernel,
        apply its stat deltas, and record the template for replays.

        ``None`` when the kernel declines (input the per-op hooks
        would reject); nothing has been mutated then.
        """
        prof = _prof.ACTIVE
        if prof is not None:
            prof.begin("packetizer_rwq")
        packed = pack_phase(
            self.config,
            self.protocol,
            self.src,
            self.queue.partitions.keys(),
            addrs,
            sizes,
            dsts,
            times,
            is_atomic,
            release_time,
        )
        if prof is not None:
            prof.end()
        if packed is None:
            return None
        template = _PhaseTemplate(
            messages=tuple(zip(packed.slots, packed.messages)),
            stores_in=packed.stores,
            atomics_in=packed.atomics,
            messages_out=len(packed.messages),
            packets_built=packed.packets,
            partition_deltas=tuple(
                (
                    dst,
                    _PartitionDelta(
                        stores_in=pieces,
                        store_hits=hits,
                        packets=len(per_packet),
                        flushes=flushes,
                        stores_per_packet=per_packet,
                    ),
                )
                for dst, pieces, hits, flushes, per_packet in packed.partitions
            ),
        )
        self._apply_template_stats(template)
        return packed.messages, template

    def _apply_template_stats(self, template: _PhaseTemplate) -> None:
        """Apply one phase's egress, packetizer and partition stat
        deltas, keeping each partition's flush-reason key order."""
        stats = self.stats
        stats.stores_in += template.stores_in
        stats.atomics_in += template.atomics_in
        stats.messages_out += template.messages_out
        stats.releases += 1
        self.packetizer.packets_built += template.packets_built
        for dst, delta in template.partition_deltas:
            pstats = self.queue.partition(dst).stats
            pstats.stores_in += delta.stores_in
            pstats.store_hits += delta.store_hits
            pstats.packets += delta.packets
            for reason, count in delta.flushes:
                pstats.flushes[reason] = pstats.flushes.get(reason, 0) + count
            pstats.stores_per_packet.extend(delta.stores_per_packet)

    def _replay_phase(
        self,
        template: _PhaseTemplate,
        times: np.ndarray,
        release_time: float,
    ) -> list[WireMessage]:
        """Re-emit a recorded phase with fresh issue times.

        Messages are structurally identical to a fresh packetization
        (packets are immutable once built and every downstream consumer
        -- depacketizer, byte ledger -- only reads them), so only the
        issue stamps differ between replays.
        """
        self._apply_template_stats(template)
        stamps = times.tolist()
        return [
            replace(
                msg,
                issue_time=release_time if slot < 0 else stamps[slot],
            )
            for slot, msg in template.messages
        ]
