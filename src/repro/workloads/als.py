"""ALS: alternating least squares matrix factorization (paper Sec. V).

Factorizes an rgg-like rating matrix into rank-``k`` user and item
factors.  ALS alternates two sub-iterations (paper Sec. V): fix the
item factors and re-solve every user factor, then fix the users and
re-solve every item factor.  The trace models each sub-iteration as one
bulk-synchronous phase: the owning GPU solves its factors and pushes
each updated factor vector (``k`` fp32 values) to *all* peer replicas
-- the programmer cannot cheaply know which peers' solves will touch a
given factor, so the P2P port broadcasts (the paper's all-to-all
pattern).  Consumers actually read only the factors referenced by their
local ratings, which gives the GPS comparison its subscription savings
and FinePack a non-zero "wasted bytes" wedge (paper Figs. 9/10).

Factors are solved in load-balanced order (owned rows sorted by rating
count), so the push stream is a 32-byte scatter -- the mid-granularity
point of the paper's Figure 2 efficiency curve.
"""

from __future__ import annotations

import numpy as np

from ..gpu.compute import KernelWork
from ..gpu.memory import MemorySpace
from ..trace.ids import unique_ints
from ..trace.stream import (
    DMATransfer,
    KernelPhase,
    RemoteStoreBatch,
)
from ..registry import workloads as _registry
from .base import MultiGPUWorkload, element_intervals, push_elements
from .datasets import bipartite_ratings, partition_bounds


@_registry.register("als")
class ALSWorkload(MultiGPUWorkload):
    """Alternating least squares on an rgg-like rating matrix."""

    name = "als"
    comm_pattern = "all-to-all"

    def __init__(
        self,
        n_users: int = 16_000,
        n_items: int = 4_000,
        rank: int = 8,
        avg_ratings: int = 45,
    ) -> None:
        if rank <= 0:
            raise ValueError(f"rank must be positive, got {rank}")
        self.n_users = n_users
        self.n_items = n_items
        self.rank = rank
        self.avg_ratings = avg_ratings

    @property
    def factor_bytes(self) -> int:
        return self.rank * 4  # fp32 factors

    def iter_phases(self, n_gpus: int, iterations: int = 3, seed: int = 7):
        ratings = bipartite_ratings(
            self.n_users, self.n_items, self.avg_ratings, seed
        )
        ubounds = partition_bounds(self.n_users, n_gpus)
        ibounds = partition_bounds(self.n_items, n_gpus)
        memory = MemorySpace(n_gpus)
        ufac = memory.alloc_replicated("als.user", self.n_users * self.factor_bytes)
        ifac = memory.alloc_replicated("als.item", self.n_items * self.factor_bytes)

        k = self.rank
        fb = self.factor_bytes
        # Ratings are stored by user and by item, so the ratings of the
        # rows a GPU owns are one contiguous run in each order.
        user_cuts = ratings.user_indptr[ubounds]
        item_cuts = ratings.item_indptr[ibounds]
        users_needed_by = {
            g: unique_ints(
                ratings.user_ids[item_cuts[g] : item_cuts[g + 1]], self.n_users
            )
            for g in range(n_gpus)
        }
        items_needed_by = {
            g: unique_ints(
                ratings.item_ids[user_cuts[g] : user_cuts[g + 1]], self.n_items
            )
            for g in range(n_gpus)
        }

        tie_break = np.random.default_rng(seed + 17)

        def sub_iteration(user_phase: bool) -> list[KernelPhase]:
            """One ALS half-step: solve users (or items), broadcast."""
            if user_phase:
                bounds, buf, cuts = ubounds, ufac, user_cuts
                indptr = ratings.user_indptr
            else:
                bounds, buf, cuts = ibounds, ifac, item_cuts
                indptr = ratings.item_indptr
            phases = []
            for g in range(n_gpus):
                lo, hi = int(bounds[g]), int(bounds[g + 1])
                owned = hi - lo
                n_ratings = int(cuts[g + 1] - cuts[g])
                work = KernelWork(
                    # Normal-equation assembly (k^2 per rating) plus the
                    # k x k solve per factor.
                    flops=n_ratings * k * k + owned * (k**3) / 3.0,
                    # Popular counterpart factors are cache-hot; the
                    # DRAM stream is ids+values per rating plus the
                    # owned factor read-modify-write.
                    dram_bytes=n_ratings * 12.0 + owned * 2.0 * fb,
                    precision="fp32",
                )
                ids = np.arange(lo, hi, dtype=np.int64)
                # Load-balanced solve order: by descending rating count,
                # equal-cost rows in arbitrary (scheduler) order -- so
                # the push stream is a scatter, not an ascending sweep.
                ids = tie_break.permutation(ids)
                costs = np.diff(indptr)[ids]
                ids = ids[np.argsort(-costs, kind="stable")]
                batches = []
                dma = []
                for d in range(n_gpus):
                    if d == g:
                        continue
                    batches.append(push_elements(ids, fb, d, buf.replicas[d]))
                    dma.append(
                        DMATransfer(
                            dst=d,
                            dst_addr=buf.replicas[d] + lo * fb,
                            nbytes=owned * fb,
                        )
                    )
                # During this phase the GPU reads the counterpart
                # factors its ratings reference (pushed last phase).
                if user_phase:
                    reads = element_intervals(
                        items_needed_by[g], fb, ifac.replicas[g]
                    )
                else:
                    reads = element_intervals(
                        users_needed_by[g], fb, ufac.replicas[g]
                    )
                phases.append(
                    KernelPhase(
                        gpu=g,
                        work=work,
                        stores=RemoteStoreBatch.concat(batches),
                        reads=reads,
                        dma=dma,
                    )
                )
            return phases

        user_phases = sub_iteration(user_phase=True)
        item_phases = sub_iteration(user_phase=False)
        for i in range(iterations):
            for p in user_phases if i % 2 == 0 else item_phases:
                yield i, p
        return {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "rank": self.rank,
            "nnz": ratings.nnz,
            "comm_pattern": self.comm_pattern,
        }
