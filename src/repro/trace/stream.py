"""Phase-level trace containers produced by the workload suite.

Workloads run their real algorithm partitioned over N virtual GPUs and
record, per iteration and per GPU, one :class:`KernelPhase`: the
kernel's compute work, the remote-store transaction stream it emitted
(already warp/L1-coalesced), the local byte ranges it *read* (used to
classify transferred bytes as useful vs wasted), and the bulk-copy plan
a memcpy-paradigm port of the program would issue at the kernel
boundary.

All bulk data is numpy-backed so million-store traces stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..gpu.compute import KernelWork
from .intervals import IntervalSet, sha256_columns


@dataclass
class RemoteStoreBatch:
    """Remote store transactions issued by one GPU in one phase.

    Arrays are parallel and in issue order.  ``dsts[i]`` is the
    destination GPU of the store at ``addrs[i]`` (an address inside the
    destination's aperture).
    """

    addrs: np.ndarray
    sizes: np.ndarray
    dsts: np.ndarray

    def __post_init__(self) -> None:
        # Already-int64 ndarrays (cache hits, column slices) pass
        # through untouched -- no conversion, no subclass demotion.
        if not (
            isinstance(self.addrs, np.ndarray) and self.addrs.dtype == np.int64
        ):
            self.addrs = np.asarray(self.addrs, dtype=np.int64)
        if not (
            isinstance(self.sizes, np.ndarray) and self.sizes.dtype == np.int64
        ):
            self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if not (
            isinstance(self.dsts, np.ndarray) and self.dsts.dtype == np.int64
        ):
            self.dsts = np.asarray(self.dsts, dtype=np.int64)
        if not (self.addrs.shape == self.sizes.shape == self.dsts.shape):
            raise ValueError("store batch arrays must be parallel")
        if self.sizes.size and (self.sizes <= 0).any():
            raise ValueError("store sizes must be positive")

    @classmethod
    def trusted(
        cls, addrs: np.ndarray, sizes: np.ndarray, dsts: np.ndarray
    ) -> "RemoteStoreBatch":
        """Wrap already-validated int64 columns as a batch *view*.

        Skips ``__post_init__`` entirely: no dtype conversion and --
        crucially for memory-mapped trace columns -- no positivity scan
        touching every page.  Callers guarantee the arrays are parallel
        int64 with positive sizes (slices of previously validated
        columns qualify).
        """
        self = object.__new__(cls)
        self.addrs = addrs
        self.sizes = sizes
        self.dsts = dsts
        return self

    @staticmethod
    def empty() -> "RemoteStoreBatch":
        z = np.empty(0, dtype=np.int64)
        return RemoteStoreBatch.trusted(z, z.copy(), z.copy())

    @staticmethod
    def concat(batches: list["RemoteStoreBatch"]) -> "RemoteStoreBatch":
        batches = [b for b in batches if b.count]
        if not batches:
            return RemoteStoreBatch.empty()
        return RemoteStoreBatch.trusted(
            np.concatenate([b.addrs for b in batches]),
            np.concatenate([b.sizes for b in batches]),
            np.concatenate([b.dsts for b in batches]),
        )

    @property
    def count(self) -> int:
        return int(self.addrs.size)

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    def for_dst(self, dst: int) -> "RemoteStoreBatch":
        mask = self.dsts == dst
        return RemoteStoreBatch.trusted(
            self.addrs[mask], self.sizes[mask], self.dsts[mask]
        )

    def destinations(self) -> list[int]:
        return np.flatnonzero(np.bincount(self.dsts)).tolist()

    def footprint(self) -> IntervalSet:
        """Union of all bytes stored (the final-value byte set)."""
        return IntervalSet.from_ranges(self.addrs, self.sizes)


@dataclass(frozen=True, slots=True)
class DMATransfer:
    """One bulk copy a memcpy-paradigm port would issue at a kernel end.

    ``dst_addr`` is the base of the copied region inside the destination
    GPU's aperture; the region is ``[dst_addr, dst_addr + nbytes)``.

    ``aggregated`` marks software-aggregated copies (a staged
    value+index buffer rather than an in-place region): the producer
    genuinely writes every byte of the staged region, so the byte
    ledger counts the region as producer-written when classifying
    useful vs. wasted bytes.
    """

    dst: int
    dst_addr: int
    nbytes: int
    aggregated: bool = False

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"DMA transfer must be positive, got {self.nbytes}")

    def region(self) -> IntervalSet:
        return IntervalSet.from_ranges([self.dst_addr], [self.nbytes])


@dataclass
class KernelPhase:
    """One GPU's kernel execution in one iteration."""

    gpu: int
    work: KernelWork
    stores: RemoteStoreBatch = field(default_factory=RemoteStoreBatch.empty)
    #: Remote atomic operations (read-modify-writes).  FinePack never
    #: coalesces these (paper Sec. IV-C); they interleave with the
    #: store stream in issue order.
    atomics: RemoteStoreBatch = field(default_factory=RemoteStoreBatch.empty)
    #: Local byte ranges this GPU reads during the phase -- the consumer
    #: side of the useful-byte classification.
    reads: IntervalSet = field(default_factory=IntervalSet.empty)
    #: Bulk copies the memcpy paradigm issues when this phase ends.
    dma: list[DMATransfer] = field(default_factory=list)

    # Content digests key every cross-phase memo (the analytical tier's
    # stats/pair/classification memos, FinePack's egress templates and
    # the byte ledger's written-and-read sets).  Each is one SHA-256
    # pass, computed on first use and cached -- the send digest on the
    # phase, the reads digest on its IntervalSet: phases are treated as
    # immutable once built.

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of what the phase sends: its store and atomic
        columns and its DMA plan (not its GPU, work or reads)."""
        s, a = self.stores, self.atomics
        plan = np.array(
            [(t.dst, t.dst_addr, t.nbytes, t.aggregated) for t in self.dma],
            dtype=np.int64,
        )
        return sha256_columns(
            s.addrs, s.sizes, s.dsts, a.addrs, a.sizes, a.dsts, plan.ravel()
        )

    @property
    def reads_digest(self) -> bytes:
        """SHA-256 of the phase's read intervals
        (:attr:`IntervalSet.digest`)."""
        return self.reads.digest


@dataclass
class IterationTrace:
    """All GPUs' phases for one bulk-synchronous iteration."""

    phases: list[KernelPhase]

    def __post_init__(self) -> None:
        gpus = [p.gpu for p in self.phases]
        if gpus != list(range(len(gpus))):
            raise ValueError(f"phases must be one per GPU in order, got {gpus}")

    @property
    def n_gpus(self) -> int:
        return len(self.phases)


@dataclass
class WorkloadTrace:
    """A full multi-GPU execution trace of one workload."""

    name: str
    n_gpus: int
    iterations: list[IterationTrace]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for it in self.iterations:
            if it.n_gpus != self.n_gpus:
                raise ValueError(
                    f"iteration has {it.n_gpus} phases, expected {self.n_gpus}"
                )

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def total_remote_stores(self) -> int:
        return sum(p.stores.count for it in self.iterations for p in it.phases)

    def total_remote_bytes(self) -> int:
        return sum(p.stores.total_bytes for it in self.iterations for p in it.phases)

    def all_store_sizes(self) -> np.ndarray:
        parts = [
            p.stores.sizes
            for it in self.iterations
            for p in it.phases
            if p.stores.count
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)
