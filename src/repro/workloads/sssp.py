"""SSSP: Bellman-Ford single-source shortest paths (paper Sec. V).

The synchronous Bellman-Ford variant on an indochina-like power-law web
graph.  Vertices are range-partitioned and each GPU *owns* the
distances of its range: every round it relaxes the in-edges of its
owned vertices against its local replica of the distance vector, then
makes each *improved* distance visible to the peers whose relaxations
reference it -- one 8-byte store per (vertex, referencing peer), in the
interleaved order the CTAs discover improvements.  Heavy-tailed edges
reference hub vertices from every partition, so the communication
pattern is many-to-many (paper Sec. V).

The memcpy port cannot know which distances improved in a round, so it
copies each owner's whole contiguous distance block to every peer --
the over-transfer that dominates DMA's wasted bytes in Figure 10.

The trace records the algorithm's genuine dynamics: the relaxation
wavefront grows over the first hops, so traffic differs per iteration.
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
from .base import MultiGPUWorkload, element_intervals, interleave, push_elements
from .datasets import owner_of_vertex, partition_bounds, powerlaw_graph


@_registry.register("sssp")
class SSSPWorkload(MultiGPUWorkload):
    """Synchronous Bellman-Ford on a power-law (indochina-like) graph."""

    name = "sssp"
    comm_pattern = "many-to-many"

    def __init__(
        self,
        n: int = 120_000,
        avg_degree: int = 12,
        max_weight: int = 1_000_000,
        warmup_iterations: int = 4,
        source: int = 0,
    ) -> None:
        if max_weight <= 1:
            raise ValueError(f"max_weight must exceed 1, got {max_weight}")
        self.n = n
        self.avg_degree = avg_degree
        self.max_weight = max_weight
        self.warmup_iterations = warmup_iterations
        self.source = source

    def iter_phases(self, n_gpus: int, iterations: int = 3, seed: int = 7):
        graph = powerlaw_graph(self.n, self.avg_degree, seed=seed)
        rng = np.random.default_rng(seed + 1)
        weights = rng.integers(1, self.max_weight, size=graph.nnz).astype(np.int64)
        # Edge (u -> v): relaxing v reads dist[u]; the owner of v is the
        # consumer of u, the owner of u the producer.
        src = np.repeat(np.arange(self.n), graph.out_degree())
        bounds = partition_bounds(self.n, n_gpus)
        consumer = owner_of_vertex(graph.dst, bounds)

        memory = MemorySpace(n_gpus)
        dbuf = memory.alloc_replicated("sssp.dist", self.n * 8)

        # Which source vertices each GPU's relaxations reference.  CSR
        # order makes each producer's out-edges one contiguous slice.
        edge_bounds = graph.indptr[bounds]
        needs: dict[tuple[int, int], np.ndarray] = {}
        for g in range(n_gpus):
            lo, hi = edge_bounds[g], edge_bounds[g + 1]
            src_g, consumer_g = src[lo:hi], consumer[lo:hi]
            for d in range(n_gpus):
                if d != g:
                    needs[(g, d)] = unique_ints(src_g[consumer_g == d], self.n)

        # Each GPU's relaxation work, and the source distances its
        # in-edges reference (the same every round).  Producers own
        # disjoint ascending ranges, so in producer order their parts
        # concatenate sorted and distinct.
        edges_per_consumer = np.bincount(consumer, minlength=n_gpus)
        works = []
        reads = []
        for g in range(n_gpus):
            e_g = int(edges_per_consumer[g])
            owned = int(bounds[g + 1] - bounds[g])
            works.append(
                KernelWork(
                    flops=3.0 * e_g,
                    # Edge weight + target index per edge; distance
                    # reads of hub vertices are cache-resident.
                    dram_bytes=14.0 * e_g + 8.0 * owned,
                    precision="fp64",
                )
            )
            parts = [needs[(o, g)] for o in range(n_gpus) if o != g]
            reads.append(
                element_intervals(np.concatenate(parts), 8, dbuf.replicas[g])
                if parts
                else IntervalSet.empty()
            )

        inf = np.iinfo(np.int64).max // 4
        dist = np.full(self.n, inf, dtype=np.int64)
        dist[self.source] = 0

        total_rounds = self.warmup_iterations + iterations
        for rnd in range(total_rounds):
            # Synchronous relaxation against the previous round's dist.
            candidate = dist[src] + weights
            improving = candidate < dist[graph.dst]
            record = rnd >= self.warmup_iterations
            if record:
                improved_mask = np.zeros(self.n, dtype=bool)
                improved_mask[graph.dst[improving]] = True
                for g in range(n_gpus):
                    owned = int(bounds[g + 1] - bounds[g])
                    batches = []
                    dma = []
                    for d in range(n_gpus):
                        if d == g:
                            continue
                        referenced = needs[(g, d)]
                        pushed = referenced[improved_mask[referenced]]
                        if pushed.size == 0:
                            continue
                        # CTAs discover improvements interleaved, so the
                        # push stream scatters across the owned range.
                        batches.append(
                            push_elements(
                                interleave(pushed, ways=64), 8, d, dbuf.replicas[d]
                            )
                        )
                        # The memcpy port copies the whole owned block:
                        # it cannot know which distances improved.
                        dma.append(
                            DMATransfer(
                                dst=d,
                                dst_addr=dbuf.replicas[d] + int(bounds[g]) * 8,
                                nbytes=owned * 8,
                            )
                        )
                    # Rounds stream as they are relaxed; the wavefront
                    # state (dist) is all that generation retains.
                    yield rnd - self.warmup_iterations, KernelPhase(
                        gpu=g,
                        work=works[g],
                        stores=RemoteStoreBatch.concat(batches),
                        reads=reads[g],
                        dma=dma,
                    )
            # Commit this round's relaxations.
            np.minimum.at(dist, graph.dst[improving], candidate[improving])

        # Metadata summarizes the finished run, so it rides the
        # generator's return value (captured after the last phase).
        reached = int((dist < inf).sum())
        return {
            "n": self.n,
            "nnz": graph.nnz,
            "reached": reached,
            "comm_pattern": self.comm_pattern,
        }
