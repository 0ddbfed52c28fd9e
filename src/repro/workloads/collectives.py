"""Collective-communication workloads (distributed-AI traffic).

The paper's eight HPC applications exchange *algorithm-shaped* traffic;
the traffic that dominates modern multi-GPU systems is collective
communication from distributed training -- ring/tree all-reduce over
gradient buckets, all-gather/all-to-all from tensor and expert
parallelism, and point-to-point activation transfers between pipeline
stages.  This module brings that scenario space into the simulator
without touching the replay machinery: each collective first builds an
explicit :class:`CollectiveSchedule` -- the rank/step/peer/chunk
structure a real communication library would execute -- and then lowers
it onto the existing trace interface, one bulk-synchronous iteration
per schedule step.

The schedule layer is deliberately separate from the trace lowering so
tests can assert algebraic properties (per-step byte conservation, no
self-sends, the ring all-reduce ``2*(N-1)/N * size`` wire total)
directly on the data structure, independent of the simulator.

Granularity is configurable down to the fine-grained stores FinePack
targets: ``message_bytes`` sets the per-rank collective payload,
``chunk_bytes`` the pipelining granularity (which is also the bulk-DMA
call granularity), ``elem_bytes`` the element size, and
``fine_grained=True`` interleaves the store stream across CTAs so
elements stay at their natural 4-8 B size instead of coalescing to
128 B lines -- the regime where FinePack-vs-DMA conclusions get stress
tested at scale.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..gpu.compute import KernelWork
from ..gpu.memory import MemorySpace
from ..registry import workloads as _registry
from ..trace.intervals import IntervalSet
from ..trace.stream import (
    DMATransfer,
    KernelPhase,
    RemoteStoreBatch,
)
from .base import MultiGPUWorkload, interleave, push_elements


@dataclass(frozen=True, slots=True)
class CollectiveTransfer:
    """One chunk sent from ``src`` to ``dst`` during schedule step ``step``.

    ``dst_offset`` locates the chunk inside the collective buffer on the
    destination rank (every rank's replica of the buffer has identical
    layout, the way NCCL-style libraries register symmetric buffers).
    """

    step: int
    src: int
    dst: int
    nbytes: int
    dst_offset: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-send in schedule: rank {self.src}")
        if self.nbytes <= 0:
            raise ValueError(f"transfer bytes must be positive: {self.nbytes}")
        if self.step < 0 or self.dst_offset < 0:
            raise ValueError("step and dst_offset must be non-negative")


@dataclass(frozen=True)
class CollectiveSchedule:
    """The full rank/step/peer structure of one collective invocation.

    Attributes
    ----------
    op:
        Operation name ("allreduce_ring", "alltoall", ...).
    n_ranks:
        Participating ranks (== GPUs).
    nbytes:
        The per-rank collective payload after element/rank padding --
        the ``size`` in the closed-form traffic formulas.
    buffer_bytes:
        Size of the symmetric buffer every ``dst_offset`` indexes into.
    transfers:
        All chunk sends, ordered by (step, src, dst_offset).
    reduce_steps:
        Steps whose received data is combined arithmetically (an add
        per element) rather than just forwarded/copied; drives the
        roofline work attached to each lowered phase.
    """

    op: str
    n_ranks: int
    nbytes: int
    buffer_bytes: int
    transfers: tuple[CollectiveTransfer, ...]
    reduce_steps: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.n_ranks < 2:
            raise ValueError(f"a collective needs >= 2 ranks: {self.n_ranks}")
        steps = [t.step for t in self.transfers]
        if steps != sorted(steps):
            raise ValueError(f"{self.op}: transfers must be step-ordered")
        for t in self.transfers:
            if not (0 <= t.src < self.n_ranks and 0 <= t.dst < self.n_ranks):
                raise ValueError(f"{self.op}: rank out of range in {t}")
            if t.dst_offset + t.nbytes > self.buffer_bytes:
                raise ValueError(
                    f"{self.op}: transfer exceeds buffer: {t} vs "
                    f"{self.buffer_bytes} B"
                )

    @property
    def n_steps(self) -> int:
        # Transfers are step-ordered (checked above).
        return self.transfers[-1].step + 1 if self.transfers else 0

    @cached_property
    def _by_rank_step(self) -> dict[str, dict[tuple[int, int], list]]:
        """Transfers grouped by (sender, step) under ``"src"`` and by
        (receiver, step) under ``"dst"``, in schedule order: built once,
        so the trace lowering's per-(rank, step) queries do not rescan
        every transfer."""
        by: dict[str, dict[tuple[int, int], list]] = {"src": {}, "dst": {}}
        for t in self.transfers:
            by["src"].setdefault((t.src, t.step), []).append(t)
            by["dst"].setdefault((t.dst, t.step), []).append(t)
        return by

    def _matching(self, side: str, rank: int | None, step: int | None):
        """Transfers whose ``side`` rank is ``rank`` at ``step`` (each
        ``None`` for all)."""
        by = self._by_rank_step[side]
        ranks = range(self.n_ranks) if rank is None else (rank,)
        steps = range(self.n_steps) if step is None else (step,)
        for r in ranks:
            for s in steps:
                yield from by.get((r, s), ())

    def outgoing(self, rank: int, step: int) -> list[CollectiveTransfer]:
        return list(self._matching("src", rank, step))

    def incoming(self, rank: int, step: int) -> list[CollectiveTransfer]:
        return list(self._matching("dst", rank, step))

    def sent_bytes(self, rank: int | None = None, step: int | None = None) -> int:
        """Total bytes sent, optionally filtered by rank and/or step."""
        return sum(t.nbytes for t in self._matching("src", rank, step))

    def received_bytes(
        self, rank: int | None = None, step: int | None = None
    ) -> int:
        return sum(t.nbytes for t in self._matching("dst", rank, step))

    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.transfers)


def _padded_elems(message_bytes: int, elem_bytes: int, multiple: int) -> int:
    """Element count covering ``message_bytes``, padded up to a multiple.

    Real libraries pad the last chunk; padding the element count keeps
    every chunk equal-sized so the closed-form traffic totals hold
    exactly (tested against ``2*(N-1)/N * size``).
    """
    elems = -(-message_bytes // elem_bytes)
    return -(-elems // multiple) * multiple


def _chunks(offset: int, nbytes: int, chunk_bytes: int):
    """Split ``[offset, offset + nbytes)`` into chunk-sized pieces."""
    pos = offset
    end = offset + nbytes
    while pos < end:
        size = min(chunk_bytes, end - pos)
        yield pos, size
        pos += size


def _sorted_schedule(transfers: list[CollectiveTransfer]):
    return tuple(sorted(transfers, key=lambda t: (t.step, t.src, t.dst_offset)))


def ring_allreduce_schedule(
    n_ranks: int,
    message_bytes: int,
    chunk_bytes: int = 16_384,
    elem_bytes: int = 4,
) -> CollectiveSchedule:
    """Ring all-reduce: reduce-scatter then all-gather, 2*(N-1) steps.

    The message is split into one chunk per rank.  During reduce-scatter
    step ``s`` rank ``r`` sends chunk ``(r - s) mod N`` to its ring
    successor, accumulating partial sums; after ``N-1`` steps rank ``r``
    owns the fully-reduced chunk ``(r + 1) mod N``, which the all-gather
    phase circulates for another ``N-1`` steps.  Per-rank wire traffic
    is exactly ``2*(N-1)/N * size``.
    """
    n = n_ranks
    elems = _padded_elems(message_bytes, elem_bytes, n)
    size = elems * elem_bytes
    per_rank = size // n
    transfers: list[CollectiveTransfer] = []
    for s in range(n - 1):  # reduce-scatter
        for r in range(n):
            chunk = (r - s) % n
            for off, nb in _chunks(chunk * per_rank, per_rank, chunk_bytes):
                transfers.append(
                    CollectiveTransfer(s, r, (r + 1) % n, nb, off)
                )
    for s in range(n - 1):  # all-gather
        for r in range(n):
            chunk = (r + 1 - s) % n
            for off, nb in _chunks(chunk * per_rank, per_rank, chunk_bytes):
                transfers.append(
                    CollectiveTransfer(n - 1 + s, r, (r + 1) % n, nb, off)
                )
    return CollectiveSchedule(
        op="allreduce_ring",
        n_ranks=n,
        nbytes=size,
        buffer_bytes=size,
        transfers=_sorted_schedule(transfers),
        reduce_steps=frozenset(range(n - 1)),
    )


def tree_allreduce_schedule(
    n_ranks: int,
    message_bytes: int,
    chunk_bytes: int = 16_384,
    elem_bytes: int = 4,
) -> CollectiveSchedule:
    """Binomial-tree all-reduce: reduce to rank 0, then broadcast back.

    During reduce step ``s`` (distance ``d = 2**s``) every rank with
    lowest set bit ``d`` sends its full partial sum to ``rank - d``;
    the broadcast phase mirrors the reduce phase in reverse.  Works for
    any rank count, not just powers of two.
    """
    n = n_ranks
    elems = _padded_elems(message_bytes, elem_bytes, 1)
    size = elems * elem_bytes
    reduce_pairs: list[list[tuple[int, int]]] = []
    d, step = 1, 0
    while d < n:
        pairs = [(r, r - d) for r in range(n) if r % (2 * d) == d]
        reduce_pairs.append(pairs)
        d *= 2
        step += 1
    transfers: list[CollectiveTransfer] = []
    for s, pairs in enumerate(reduce_pairs):
        for src, dst in pairs:
            for off, nb in _chunks(0, size, chunk_bytes):
                transfers.append(CollectiveTransfer(s, src, dst, nb, off))
    n_reduce = len(reduce_pairs)
    for i, pairs in enumerate(reversed(reduce_pairs)):  # broadcast mirror
        for src, dst in pairs:
            for off, nb in _chunks(0, size, chunk_bytes):
                transfers.append(
                    CollectiveTransfer(n_reduce + i, dst, src, nb, off)
                )
    return CollectiveSchedule(
        op="allreduce_tree",
        n_ranks=n,
        nbytes=size,
        buffer_bytes=size,
        transfers=_sorted_schedule(transfers),
        reduce_steps=frozenset(range(n_reduce)),
    )


def allgather_schedule(
    n_ranks: int,
    message_bytes: int,
    chunk_bytes: int = 16_384,
    elem_bytes: int = 4,
) -> CollectiveSchedule:
    """Ring all-gather: every rank's contribution circulates N-1 steps.

    Rank ``r`` contributes ``size`` bytes at slot ``r`` of an
    ``N * size`` output buffer; at step ``s`` it forwards slot
    ``(r - s) mod N`` to its successor.
    """
    n = n_ranks
    elems = _padded_elems(message_bytes, elem_bytes, 1)
    size = elems * elem_bytes
    transfers: list[CollectiveTransfer] = []
    for s in range(n - 1):
        for r in range(n):
            slot = (r - s) % n
            for off, nb in _chunks(slot * size, size, chunk_bytes):
                transfers.append(
                    CollectiveTransfer(s, r, (r + 1) % n, nb, off)
                )
    return CollectiveSchedule(
        op="allgather",
        n_ranks=n,
        nbytes=size,
        buffer_bytes=n * size,
        transfers=_sorted_schedule(transfers),
    )


def alltoall_schedule(
    n_ranks: int,
    message_bytes: int,
    chunk_bytes: int = 16_384,
    elem_bytes: int = 4,
) -> CollectiveSchedule:
    """Pairwise-exchange all-to-all: N-1 steps, peer ``(r + s) mod N``.

    Every rank holds one ``size/N`` slice for every peer; at step ``s``
    (``s`` in ``1..N-1``) rank ``r`` exchanges slices with rank
    ``(r + s) mod N``, landing its slice at slot ``r`` of the
    destination's buffer -- the congestion-avoiding schedule MPI and
    expert-parallel dispatch layers use.
    """
    n = n_ranks
    elems = _padded_elems(message_bytes, elem_bytes, n)
    size = elems * elem_bytes
    slice_bytes = size // n
    transfers: list[CollectiveTransfer] = []
    for s in range(1, n):
        for r in range(n):
            dst = (r + s) % n
            for off, nb in _chunks(r * slice_bytes, slice_bytes, chunk_bytes):
                transfers.append(CollectiveTransfer(s - 1, r, dst, nb, off))
    return CollectiveSchedule(
        op="alltoall",
        n_ranks=n,
        nbytes=size,
        buffer_bytes=size,
        transfers=_sorted_schedule(transfers),
    )


def pipeline_schedule(
    n_ranks: int,
    message_bytes: int,
    microbatches: int = 4,
    chunk_bytes: int = 16_384,
    elem_bytes: int = 4,
) -> CollectiveSchedule:
    """Pipeline-parallel stage-to-stage traffic: forward then backward.

    Ranks are pipeline stages.  For each of ``microbatches`` forward
    steps every stage but the last sends its activations (``size``
    bytes) downstream; the backward phase sends gradients upstream.
    The steady-state schedule (all stages active every step) models the
    1F1B regime rather than the fill/drain ramps.
    """
    n = n_ranks
    elems = _padded_elems(message_bytes, elem_bytes, 1)
    size = elems * elem_bytes
    if microbatches < 1:
        raise ValueError(f"microbatches must be >= 1: {microbatches}")
    transfers: list[CollectiveTransfer] = []
    for m in range(microbatches):  # forward: activations downstream
        for r in range(n - 1):
            for off, nb in _chunks(0, size, chunk_bytes):
                transfers.append(CollectiveTransfer(m, r, r + 1, nb, off))
    for m in range(microbatches):  # backward: gradients upstream
        for r in range(1, n):
            for off, nb in _chunks(0, size, chunk_bytes):
                transfers.append(
                    CollectiveTransfer(microbatches + m, r, r - 1, nb, off)
                )
    return CollectiveSchedule(
        op="pipeline",
        n_ranks=n,
        nbytes=size,
        buffer_bytes=size,
        transfers=_sorted_schedule(transfers),
    )


class CollectiveWorkload(MultiGPUWorkload):
    """Base class lowering a :class:`CollectiveSchedule` onto the trace.

    Each schedule step becomes one bulk-synchronous iteration: the
    dependency structure of ring/tree algorithms (step ``s+1`` consumes
    what step ``s`` delivered) maps exactly onto the simulator's
    produce-in-``k``/consume-in-``k+1`` contract, so the useful-byte
    classification is meaningful -- everything received is read by the
    next step's kernel.  One requested trace ``iteration`` is one full
    collective invocation (one gradient bucket / microbatch group).
    """

    comm_pattern = "collective"

    def __init__(
        self,
        message_bytes: int = 65_536,
        chunk_bytes: int = 16_384,
        elem_bytes: int = 4,
        fine_grained: bool = False,
    ) -> None:
        if message_bytes <= 0:
            raise ValueError(f"message_bytes must be positive: {message_bytes}")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive: {chunk_bytes}")
        if elem_bytes not in (1, 2, 4, 8):
            raise ValueError(f"elem_bytes must be 1/2/4/8: {elem_bytes}")
        self.message_bytes = message_bytes
        self.chunk_bytes = chunk_bytes
        self.elem_bytes = elem_bytes
        self.fine_grained = fine_grained

    @abc.abstractmethod
    def build_schedule(self, n_ranks: int) -> CollectiveSchedule:
        """The rank/step/peer schedule for ``n_ranks`` participants."""

    # -- trace lowering ---------------------------------------------

    def _phase_work(
        self, schedule: CollectiveSchedule, rank: int, step: int
    ) -> KernelWork:
        """Roofline work of one step: combine what the previous step
        delivered, stage what this step sends."""
        prev = (step - 1) % schedule.n_steps
        recv = schedule.received_bytes(rank, prev)
        sent = schedule.sent_bytes(rank, step)
        reducing = prev in schedule.reduce_steps
        return KernelWork(
            flops=float(recv // self.elem_bytes) if reducing else 0.0,
            dram_bytes=2.0 * sent + (3.0 if reducing else 2.0) * recv,
            precision="fp32" if self.elem_bytes <= 4 else "fp64",
        )

    def iter_phases(self, n_gpus: int, iterations: int = 3, seed: int = 7):
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if n_gpus == 1:
            return (yield from self._iter_single_gpu(iterations))
        schedule = self.build_schedule(n_gpus)
        memory = MemorySpace(n_gpus)
        buf = memory.alloc_replicated(f"{self.name}.buf", schedule.buffer_bytes)
        eb = self.elem_bytes

        step_phases: list[list[KernelPhase]] = []
        for step in range(schedule.n_steps):
            phases: list[KernelPhase] = []
            for rank in range(n_gpus):
                batches: list[RemoteStoreBatch] = []
                dma: list[DMATransfer] = []
                for tr in schedule.outgoing(rank, step):
                    first = tr.dst_offset // eb
                    elems = np.arange(
                        first, first + tr.nbytes // eb, dtype=np.int64
                    )
                    if self.fine_grained:
                        # Dynamic CTA scheduling scatters issue order, so
                        # stores stay at element granularity (cf.
                        # pagerank's per-edge pushes).
                        elems = interleave(elems, ways=32)
                    batches.append(
                        push_elements(elems, eb, tr.dst, buf.replicas[tr.dst])
                    )
                    dma.append(
                        DMATransfer(
                            dst=tr.dst,
                            dst_addr=buf.replicas[tr.dst] + tr.dst_offset,
                            nbytes=tr.nbytes,
                        )
                    )
                # This step's kernel consumes what the previous step
                # delivered (step 0 consumes the final step's output:
                # the application reading the finished collective).
                prev = (step - 1) % schedule.n_steps
                received = schedule.incoming(rank, prev)
                if received:
                    reads = IntervalSet.from_ranges(
                        [buf.replicas[rank] + t.dst_offset for t in received],
                        [t.nbytes for t in received],
                    )
                else:
                    reads = IntervalSet.empty()
                phases.append(
                    KernelPhase(
                        gpu=rank,
                        work=self._phase_work(schedule, rank, step),
                        stores=RemoteStoreBatch.concat(batches),
                        reads=reads,
                        dma=dma,
                    )
                )
            step_phases.append(phases)

        # One trace iteration per schedule step, repeated per requested
        # invocation (the bulk-synchronous lowering of step dependence).
        it = 0
        for _ in range(iterations):
            for phases in step_phases:
                for p in phases:
                    yield it, p
                it += 1
        return {
            "op": schedule.op,
            "comm_pattern": self.comm_pattern,
            "message_bytes": schedule.nbytes,
            "chunk_bytes": self.chunk_bytes,
            "elem_bytes": eb,
            "fine_grained": self.fine_grained,
            "steps_per_invocation": schedule.n_steps,
            "invocations": iterations,
            "schedule_transfers": len(schedule.transfers),
            "total_wire_payload": schedule.total_bytes() * iterations,
        }

    def _iter_single_gpu(self, iterations: int):
        """1-GPU baseline: the local reduction/copy, no communication."""
        elems = _padded_elems(self.message_bytes, self.elem_bytes, 1)
        size = elems * self.elem_bytes
        work = KernelWork(
            flops=float(elems),
            dram_bytes=3.0 * size,
            precision="fp32" if self.elem_bytes <= 4 else "fp64",
        )
        phase = KernelPhase(gpu=0, work=work)
        for i in range(iterations):
            yield i, phase
        return {"op": self.name, "comm_pattern": self.comm_pattern}


@_registry.register("allreduce_ring")
class RingAllReduceWorkload(CollectiveWorkload):
    """Ring all-reduce over one gradient bucket per iteration."""

    name = "allreduce_ring"

    def build_schedule(self, n_ranks: int) -> CollectiveSchedule:
        return ring_allreduce_schedule(
            n_ranks, self.message_bytes, self.chunk_bytes, self.elem_bytes
        )


@_registry.register("allreduce_tree")
class TreeAllReduceWorkload(CollectiveWorkload):
    """Binomial-tree all-reduce (latency-optimal for small buckets)."""

    name = "allreduce_tree"

    def build_schedule(self, n_ranks: int) -> CollectiveSchedule:
        return tree_allreduce_schedule(
            n_ranks, self.message_bytes, self.chunk_bytes, self.elem_bytes
        )


@_registry.register("allgather")
class AllGatherWorkload(CollectiveWorkload):
    """Ring all-gather (tensor-parallel weight/activation collection)."""

    name = "allgather"

    def build_schedule(self, n_ranks: int) -> CollectiveSchedule:
        return allgather_schedule(
            n_ranks, self.message_bytes, self.chunk_bytes, self.elem_bytes
        )


@_registry.register("alltoall")
class AllToAllWorkload(CollectiveWorkload):
    """Pairwise-exchange all-to-all (expert-parallel dispatch)."""

    name = "alltoall"

    def build_schedule(self, n_ranks: int) -> CollectiveSchedule:
        return alltoall_schedule(
            n_ranks, self.message_bytes, self.chunk_bytes, self.elem_bytes
        )


@_registry.register("pipeline")
class PipelineWorkload(CollectiveWorkload):
    """Pipeline-parallel point-to-point activation/gradient stages."""

    name = "pipeline"

    def __init__(
        self,
        message_bytes: int = 65_536,
        chunk_bytes: int = 16_384,
        elem_bytes: int = 4,
        fine_grained: bool = False,
        microbatches: int = 4,
    ) -> None:
        super().__init__(message_bytes, chunk_bytes, elem_bytes, fine_grained)
        if microbatches < 1:
            raise ValueError(f"microbatches must be >= 1: {microbatches}")
        self.microbatches = microbatches

    def build_schedule(self, n_ranks: int) -> CollectiveSchedule:
        return pipeline_schedule(
            n_ranks,
            self.message_bytes,
            self.microbatches,
            self.chunk_bytes,
            self.elem_bytes,
        )


def collectives_suite(**overrides) -> list[CollectiveWorkload]:
    """Every registered collective workload at its default scale.

    Keyword overrides (``message_bytes=...``, ``fine_grained=True``)
    apply to all members -- handy for scaled-down test grids.
    """
    return [
        RingAllReduceWorkload(**overrides),
        TreeAllReduceWorkload(**overrides),
        AllGatherWorkload(**overrides),
        AllToAllWorkload(**overrides),
        PipelineWorkload(**overrides),
    ]
