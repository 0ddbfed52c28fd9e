"""PageRank (paper Sec. V).

Synchronous power iteration ``x' = d * A x + (1-d)/n`` over a
cage-like banded matrix.  Vertices are range-partitioned.  Each GPU
owns the ranks of its vertex range; after computing them it makes them
visible to the peers whose rows reference them by walking its out-edge
list and storing ``x[u]`` into the consumer's replica *per edge* -- the
natural push-style port of the kernel.  This produces the fine-grained
traffic the paper characterizes:

* 8-byte stores scattered across the consumer's replica (Fig. 4),
* repeated stores of the same rank when a vertex has several out-edges
  into the same partition -- redundant transfers that FinePack's write
  queue coalesces away (Fig. 10),
* banded structure keeps traffic between neighbouring partitions (the
  paper calls cage's pattern peer-to-peer).

The memcpy port instead copies each owner's whole contiguous rank
block: it cannot cheaply enumerate the referenced subset, so it
over-transfers (Fig. 10's wasted bytes for DMA).
"""

from __future__ import annotations

import numpy as np

from ..gpu.compute import KernelWork
from ..gpu.memory import MemorySpace
from ..trace.ids import unique_ints
from ..trace.intervals import IntervalSet
from ..trace.stream import (
    DMATransfer,
    KernelPhase,
    RemoteStoreBatch,
)
from ..registry import workloads as _registry
from .base import (
    MultiGPUWorkload,
    element_intervals,
    interleave,
    push_elements,
)
from .datasets import banded_matrix, owner_of_vertex, partition_bounds


@_registry.register("pagerank")
class PagerankWorkload(MultiGPUWorkload):
    """Push-style synchronous PageRank on a banded (cage-like) matrix."""

    name = "pagerank"
    comm_pattern = "peer-to-peer"

    def __init__(
        self,
        n: int = 100_000,
        avg_degree: int = 10,
        band_fraction: float = 0.07,
        damping: float = 0.85,
        use_atomics: bool = False,
    ) -> None:
        """With ``use_atomics=True`` the port pushes per-edge
        ``atomicAdd`` contributions into the consumer's accumulator
        instead of storing final rank values -- the alternative
        fine-grained port the paper's Sec. IV-C declines to coalesce
        (atomics always bypass the remote write queue)."""
        if not 0 < damping < 1:
            raise ValueError(f"damping must be in (0,1), got {damping}")
        self.n = n
        self.avg_degree = avg_degree
        self.band_fraction = band_fraction
        self.band = max(1, int(n * band_fraction))
        self.damping = damping
        self.use_atomics = use_atomics

    def _reference_ranks(self, graph, iterations: int) -> np.ndarray:
        """Run the actual power iteration (validates the algorithm)."""
        n = graph.n
        x = np.full(n, 1.0 / n)
        out_deg = np.maximum(graph.out_degree(), 1)
        src = np.repeat(np.arange(n), graph.out_degree())
        for _ in range(iterations):
            contrib = (x / out_deg)[src]
            # bincount adds the weights in edge order, like np.add.at.
            y = np.bincount(graph.dst, weights=contrib, minlength=n)
            x = self.damping * y + (1 - self.damping) / n
        return x

    def iter_phases(self, n_gpus: int, iterations: int = 3, seed: int = 7):
        graph = banded_matrix(self.n, self.band, self.avg_degree, seed)
        ranks = self._reference_ranks(graph, iterations)
        bounds = partition_bounds(self.n, n_gpus)
        memory = MemorySpace(n_gpus)
        xbuf = memory.alloc_replicated("pagerank.x", self.n * 8)

        # Edge (u -> v): the rank of v depends on x[u], so the owner of
        # u pushes x[u] to the owner of v, once per out-edge, in CSR
        # (ascending u) order.
        src = np.repeat(np.arange(self.n), graph.out_degree())
        consumer = owner_of_vertex(graph.dst, bounds)
        # CSR order makes each producer's out-edges one contiguous slice.
        edge_bounds = graph.indptr[bounds]

        phases: list[KernelPhase] = []
        edges_per_consumer = np.bincount(consumer, minlength=n_gpus)
        for g in range(n_gpus):
            lo, hi = edge_bounds[g], edge_bounds[g + 1]
            src_g, dst_g, consumer_g = src[lo:hi], graph.dst[lo:hi], consumer[lo:hi]
            owned = int(bounds[g + 1] - bounds[g])
            e_g = int(edges_per_consumer[g])
            work = KernelWork(
                flops=2.0 * e_g + 3.0 * owned,
                # Rank reads are strongly cache-resident within the
                # band, so the DRAM stream is the 4 B column index per
                # edge plus spill, and the owned rank vector write.
                dram_bytes=8.0 * e_g + 8.0 * owned,
                precision="fp64",
            )
            batches = []
            pushed_atomics: list[RemoteStoreBatch] | None = (
                [] if self.use_atomics else None
            )
            dma = []
            for d in range(n_gpus):
                if d == g:
                    continue
                mask = consumer_g == d
                # Per-edge pushes, duplicates included; dynamic CTA
                # scheduling interleaves many blocks' streams, so
                # neighbouring vertices neither coalesce in the L1 nor
                # arrive window-adjacent at the remote write queue.
                if pushed_atomics is None:
                    pushed = interleave(src_g[mask], ways=256)
                    if pushed.size == 0:
                        continue
                    batches.append(push_elements(pushed, 8, d, xbuf.replicas[d]))
                else:
                    # Atomic port: contributions accumulate into the
                    # consumer's copy per destination vertex.
                    targets = interleave(dst_g[mask], ways=256)
                    if targets.size == 0:
                        continue
                    pushed_atomics.append(
                        RemoteStoreBatch(
                            xbuf.replicas[d] + targets * 8,
                            np.full(targets.size, 8, dtype=np.int64),
                            np.full(targets.size, d, dtype=np.int64),
                        )
                    )
                dma.append(
                    DMATransfer(
                        dst=d,
                        dst_addr=xbuf.replicas[d] + int(bounds[g]) * 8,
                        nbytes=owned * 8,
                    )
                )
            if self.use_atomics:
                # The atomic port's consumer reads its own accumulator.
                reads = IntervalSet.from_ranges(
                    [xbuf.replicas[g] + int(bounds[g]) * 8], [owned * 8]
                )
            else:
                # The remote ranks this GPU's rows reference.
                into_g = src[consumer == g]
                referenced = unique_ints(
                    into_g[owner_of_vertex(into_g, bounds) != g], self.n
                )
                reads = element_intervals(referenced, 8, xbuf.replicas[g])
            phases.append(
                KernelPhase(
                    gpu=g,
                    work=work,
                    stores=RemoteStoreBatch.concat(batches),
                    atomics=(
                        RemoteStoreBatch.concat(pushed_atomics)
                        if pushed_atomics is not None
                        else RemoteStoreBatch.empty()
                    ),
                    reads=reads,
                    dma=dma,
                )
            )

        # The push pattern is identical every power iteration; only the
        # rank *values* change, and the trace carries addresses.
        for i in range(iterations):
            for p in phases:
                yield i, p
        return {
            "n": self.n,
            "nnz": graph.nnz,
            "band": self.band,
            "rank_sum": float(ranks.sum()),
            "comm_pattern": self.comm_pattern,
        }
