"""Synthetic dataset generators standing in for the paper's inputs.

The paper evaluates on University of Florida sparse matrices (cage,
indochina, rgg) and structured grids.  Those exact files are not
redistributable here, so seeded generators reproduce the *structural*
properties that determine communication behaviour:

* :func:`banded_matrix`   -- banded band structure (cage-like): edges
  concentrate near the diagonal, so a row partition communicates mostly
  with neighbouring partitions (peer-to-peer pattern).
* :func:`powerlaw_graph`  -- heavy-tailed web graph (indochina-like):
  edges reach everywhere, giving the many-to-many pattern of SSSP.
* :func:`bipartite_ratings` -- an rgg-like user/item rating graph for
  ALS (all-to-all factor exchange).

All generators are deterministic in their seed and return plain numpy
CSR-style arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..trace.ids import stable_argsort, unique_ints


@dataclass(frozen=True)
class Graph:
    """CSR adjacency: edges of vertex v are ``dst[indptr[v]:indptr[v+1]]``."""

    n: int
    indptr: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr must have n+1 entries")
        if self.indptr[-1] != self.dst.size:
            raise ValueError("indptr[-1] must equal the edge count")

    @property
    def nnz(self) -> int:
        return int(self.dst.size)

    def out_degree(self) -> np.ndarray:
        return np.diff(self.indptr)


def _to_csr(n: int, src: np.ndarray, dst: np.ndarray) -> Graph:
    """CSR of edges whose ``src`` column is already ascending (every
    caller builds it from ``np.repeat`` over ``arange`` or a sort)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n=n, indptr=indptr, dst=dst.astype(np.int64, copy=False))


def banded_matrix(
    n: int, band: int, avg_degree: int, seed: int = 0
) -> Graph:
    """A banded sparse matrix/graph (cage-like locality).

    Each vertex gets ``avg_degree`` neighbours drawn from a window of
    ``+-band`` around itself (clipped to the vertex range), so a
    contiguous row partition exchanges data predominantly with its
    neighbouring partitions.
    """
    if band <= 0 or avg_degree <= 0 or n <= 1:
        raise ValueError("n > 1, band > 0 and avg_degree > 0 required")
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n, dtype=np.int64), avg_degree)
    offsets = rng.integers(-band, band + 1, size=src.size)
    dst = np.clip(src + offsets, 0, n - 1)
    keep = dst != src
    return _to_csr(n, src[keep], dst[keep])


def powerlaw_graph(
    n: int, avg_degree: int, alpha: float = 1.5, seed: int = 0
) -> Graph:
    """A heavy-tailed directed graph (indochina-like web structure).

    Edge targets follow a Zipf-like popularity distribution over a
    random vertex permutation, so hubs attract edges from every
    partition: the communication pattern becomes many-to-many.
    """
    if n <= 1 or avg_degree <= 0:
        raise ValueError("n > 1 and avg_degree > 0 required")
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    rng = np.random.default_rng(seed)
    m = n * avg_degree
    src = np.repeat(np.arange(n, dtype=np.int64), avg_degree)
    # Inverse-CDF sampling of a bounded zipf over popularity ranks.
    u = rng.random(m)
    ranks = np.floor(n * u ** (alpha / (alpha - 1.0))).astype(np.int64)
    ranks = np.clip(ranks, 0, n - 1)
    perm = rng.permutation(n)
    dst = perm[ranks]
    keep = dst != src
    return _to_csr(n, src[keep], dst[keep])


@dataclass(frozen=True)
class RatingMatrix:
    """Bipartite user-item ratings in CSR (by user) and CSC (by item)."""

    n_users: int
    n_items: int
    user_indptr: np.ndarray
    item_ids: np.ndarray
    item_indptr: np.ndarray
    user_ids: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.item_ids.size)


def bipartite_ratings(
    n_users: int, n_items: int, avg_ratings: int, seed: int = 0
) -> RatingMatrix:
    """An rgg-like rating matrix: mild popularity skew on items."""
    if min(n_users, n_items, avg_ratings) <= 0:
        raise ValueError("all dimensions must be positive")
    rng = np.random.default_rng(seed)
    # Rating r belongs to user r // avg_ratings: the by-user (CSR)
    # order is generation order.
    n_ratings = n_users * avg_ratings
    # Mild skew: squared-uniform concentrates ratings on popular items.
    items = np.floor(n_items * rng.random(n_ratings) ** 1.5).astype(np.int64)
    items = np.clip(items, 0, n_items - 1)
    user_indptr = np.arange(n_users + 1, dtype=np.int64) * avg_ratings

    by_item = stable_argsort(items, n_items)
    item_indptr = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(np.bincount(items, minlength=n_items), out=item_indptr[1:])

    return RatingMatrix(
        n_users=n_users,
        n_items=n_items,
        user_indptr=user_indptr,
        item_ids=items,
        item_indptr=item_indptr,
        user_ids=by_item // avg_ratings,
    )


def dedup_edges(
    graph: Graph, weights: np.ndarray | None = None
) -> tuple[Graph, np.ndarray | None]:
    """Collapse duplicate (src, dst) edges, keeping the minimum weight.

    The generators can emit parallel edges (multigraph semantics);
    reference comparisons against simple-graph libraries need them
    collapsed.
    """
    src = np.repeat(np.arange(graph.n), graph.out_degree())
    key = src * graph.n + graph.dst
    if weights is None:
        uniq = unique_ints(key)
        new_src = (uniq // graph.n).astype(np.int64)
        new_dst = (uniq % graph.n).astype(np.int64)
        return _to_csr(graph.n, new_src, new_dst), None
    order = np.lexsort((weights, key))
    key_sorted = key[order]
    first = np.ones(key_sorted.size, dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    # Per key the minimum weight comes first, and keys ascend, so the
    # kept edges are already in CSR (ascending src) order.
    kept = order[first]
    return _to_csr(graph.n, src[kept], graph.dst[kept]), weights[kept]


def partition_bounds(n: int, n_parts: int) -> np.ndarray:
    """Contiguous partition boundaries: part p owns [b[p], b[p+1])."""
    if n_parts <= 0 or n < n_parts:
        raise ValueError(f"cannot split {n} elements into {n_parts} parts")
    return np.linspace(0, n, n_parts + 1).astype(np.int64)


def owner_of_vertex(v: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Partition index owning each vertex in ``v``."""
    return np.searchsorted(bounds, v, side="right") - 1
