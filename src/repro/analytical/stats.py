"""Per-phase trace-column statistics for the analytical tier.

Everything the closed-form cost models need is computable in one
vectorized pass over a phase's store/atomic columns, grouped by
destination:

* op counts and byte sums (with the DW-padded sums the PCIe TLP
  padding term needs),
* the delivered-byte *footprint* (an :class:`IntervalSet` union of the
  store ranges -- duplicates collapse, exactly like coalescing
  hardware),
* cache-line geometry of that footprint (line *runs*, distinct lines,
  head/tail padding) for the write-combining and FinePack models,
* FinePack window segmentation (transitions of the address's window id
  in issue order), and
* atomic/footprint overlap counts (the ATOMIC_CONFLICT flush term).

Phases repeat across iterations in steady-state traces, so
:func:`phase_stats` memoizes by ``(gpu, KernelPhase.digest)`` -- the
same SHA-256 content digest that keys the model-layer memos and
FinePack's phase templates (``FinePackEgress.phase_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..interconnect.pcie import DW_BYTES
from ..trace.intervals import IntervalSet
from ..trace.stream import KernelPhase

#: Memoized :class:`PhaseStats` by ``(gpu, digest)``, FIFO-bounded.
_MEMO_MAX_ENTRIES = 256
_memo: dict[tuple[int, bytes], "PhaseStats"] = {}


@dataclass(frozen=True)
class LineGeometry:
    """Cache-line structure of a byte footprint.

    ``runs`` is the number of maximal contiguous pieces after splitting
    every footprint interval at line boundaries -- one wire message per
    run for write-combining egress, one sub-transaction per run for a
    single-epoch FinePack flush.  ``lines`` is the number of *distinct*
    lines touched (queue-entry occupancy).  ``pad_bytes`` is the total
    DW padding the runs pay on the wire.
    """

    runs: int
    lines: int
    pad_bytes: int


def line_geometry(fp: IntervalSet, line_bytes: int) -> LineGeometry:
    """Line runs / distinct lines / DW padding of a footprint."""
    if not fp:
        return LineGeometry(0, 0, 0)
    s, e = fp.starts, fp.ends
    first = s // line_bytes
    last = (e - 1) // line_bytes
    n_lines = last - first + 1
    runs = int(n_lines.sum())
    # Distinct lines: union of the per-interval line-index ranges.
    lines = IntervalSet.from_ranges(first, n_lines).total_bytes
    # DW padding: only head/tail pieces of each interval can be
    # unaligned (middle pieces are whole lines; line_bytes % 4 == 0 for
    # every modeled line size).
    single = n_lines == 1
    head = np.where(single, e - s, (first + 1) * line_bytes - s)
    tail = np.where(single, 0, e - last * line_bytes)
    pad = int(((-head) % DW_BYTES).sum() + ((-tail) % DW_BYTES).sum())
    if line_bytes % DW_BYTES:
        mid = np.maximum(n_lines - 2, 0)
        pad += int((mid * ((-line_bytes) % DW_BYTES)).sum())
    return LineGeometry(runs=runs, lines=lines, pad_bytes=pad)


def sector_expand(fp: IntervalSet, sector_bytes: int) -> IntervalSet:
    """Round every footprint interval out to sector boundaries.

    Models GPS-style sector-granular replication: flushed lines ship
    whole sectors, over-transferring the untouched bytes inside each
    touched sector.
    """
    if sector_bytes <= 1 or not fp:
        return fp
    starts = (fp.starts // sector_bytes) * sector_bytes
    ends = -(-fp.ends // sector_bytes) * sector_bytes
    return IntervalSet.from_ranges(starts, ends - starts)


def overlap_count(addrs: np.ndarray, sizes: np.ndarray, fp: IntervalSet) -> int:
    """How many ``[addr, addr+size)`` ranges overlap the footprint."""
    if addrs.size == 0 or not fp:
        return 0
    # The first footprint interval ending after the range's start must
    # begin before the range's end.
    i = np.searchsorted(fp.ends, addrs, side="right")
    ok = i < len(fp)
    j = np.clip(i, 0, len(fp) - 1)
    ok &= fp.starts[j] < addrs + sizes
    return int(ok.sum())


#: Sentinel distance for "no previous related op" (effectively +inf).
_FAR = 1 << 62


@dataclass(frozen=True)
class DistanceProfile:
    """Sorted issue-distance distribution with prefix sums.

    Supports O(log n) evaluation of the two expectations the FinePack
    epoch fixed point needs, for an epoch length of ``span`` ops:

    * ``crossings(span)`` -- E[#ops whose previous related op is in an
      *earlier* epoch] = ``Σ min(1, d/span)`` (+1 per op with no
      previous related op at all);
    * ``merges(span)`` -- E[#ops whose previous related op is in the
      *same* epoch] = ``Σ max(0, 1 - d/span)``.

    The ``min(1, d/span)`` kernel is the probability that a uniformly
    placed epoch boundary falls between two ops ``d`` apart.
    """

    d_sorted: np.ndarray
    cum_d: np.ndarray
    #: Ops with no previous related op (always cross).
    n_first: int = 0
    #: Optional weights (byte sizes) and weighted-distance prefixes.
    cum_w: np.ndarray | None = None
    cum_wd: np.ndarray | None = None

    @classmethod
    def build(
        cls, d: np.ndarray, n_first: int = 0, weights: np.ndarray | None = None
    ) -> "DistanceProfile":
        order = np.argsort(d, kind="stable")
        ds = d[order]
        cum_d = np.concatenate([[0], np.cumsum(ds)])
        cum_w = cum_wd = None
        if weights is not None:
            w = weights[order]
            cum_w = np.concatenate([[0], np.cumsum(w)])
            cum_wd = np.concatenate([[0], np.cumsum(w * ds)])
        return cls(ds, cum_d, n_first, cum_w, cum_wd)

    def crossings(self, span: float) -> float:
        k = int(np.searchsorted(self.d_sorted, span))
        return (
            self.n_first
            + (self.d_sorted.size - k)
            + float(self.cum_d[k]) / span
        )

    def merges(self, span: float) -> float:
        k = int(np.searchsorted(self.d_sorted, span))
        return k - float(self.cum_d[k]) / span

    def weighted_crossing_fraction(self, span: float) -> float:
        """``Σ w·min(1, d/span) / Σ w`` (0 when unweighted/empty)."""
        if self.cum_w is None or not self.cum_w[-1]:
            return 0.0
        k = int(np.searchsorted(self.d_sorted, span))
        shipped = (self.cum_w[-1] - self.cum_w[k]) + self.cum_wd[k] / span
        return float(shipped) / float(self.cum_w[-1])


@dataclass(frozen=True)
class PackProfile:
    """Issue-order structure of one destination stream for FinePack.

    ``pieces`` is the sub-transaction upper bound: every (op x spanned
    line) piece, before any within-epoch merging.  ``alloc`` carries
    distances to each op's previous same-line op (an op re-allocates a
    queue entry only when a flush separated them); ``merge`` carries
    distances to each op's previous byte-adjacent or same-address op
    (pieces merge into one sub-transaction only within an epoch);
    ``dup`` carries size-weighted same-address distances (a duplicated
    byte is re-shipped only when a flush separated the writes).
    """

    pieces: int
    alloc: DistanceProfile
    merge: DistanceProfile
    dup: DistanceProfile


def _build_pack_profile(
    addrs: np.ndarray, sizes: np.ndarray, line_bytes: int
) -> PackProfile:
    n = addrs.size
    idx = np.arange(n)
    first = addrs // line_bytes
    last = (addrs + sizes - 1) // line_bytes
    pieces = int((last - first + 1).sum())

    # Entry (re-)allocation: previous op touching the same first line.
    order = np.lexsort((idx, first))
    same = first[order][1:] == first[order][:-1]
    d_alloc = (order[1:] - order[:-1])[same]
    alloc = DistanceProfile.build(d_alloc, n_first=n - int(same.sum()))

    # Same-address predecessor (duplicate writes).
    d_same = np.full(n, _FAR, dtype=np.int64)
    order = np.lexsort((idx, addrs))
    same = addrs[order][1:] == addrs[order][:-1]
    tgt = order[1:][same]
    d_same[tgt] = tgt - order[:-1][same]

    # Byte-adjacent predecessor (an op extending an earlier op's run).
    # Streaming writes extend the *immediately preceding* op; that
    # d == 1 case is the only adjacency that matters in practice, and
    # checking it is O(n).  An adjacent op further back in the stream
    # is not counted as a merge.  Adjacency across a line boundary
    # lands in a different queue entry, so it never merges
    # sub-transactions.
    d_adj = np.full(n, _FAR, dtype=np.int64)
    seq = (addrs[1:] == addrs[:-1] + sizes[:-1]) & (addrs[1:] % line_bytes != 0)
    d_adj[1:][seq] = 1
    d_merge = np.minimum(d_adj, d_same)
    merge = DistanceProfile.build(d_merge[d_merge < _FAR])

    dup_mask = d_same < _FAR
    dup = DistanceProfile.build(d_same[dup_mask], weights=sizes[dup_mask])
    return PackProfile(pieces=pieces, alloc=alloc, merge=merge, dup=dup)


class DstOps:
    """One destination's slice of a phase's op columns, in issue order.

    Aggregates are computed lazily and cached -- the protocol models
    only touch what their paradigm needs (line geometry for packing
    models, window segmentation and pack profiles for FinePack, padded
    sums for every TLP-per-store path).
    """

    __slots__ = (
        "addrs", "sizes", "_footprint", "_geometry", "_segments", "_profiles"
    )

    def __init__(self, addrs: np.ndarray, sizes: np.ndarray) -> None:
        self.addrs = addrs
        self.sizes = sizes
        self._footprint: IntervalSet | None = None
        self._geometry: dict[int, LineGeometry] = {}
        self._segments: dict[int, int] = {}
        self._profiles: dict[int, PackProfile] = {}

    @property
    def count(self) -> int:
        return int(self.addrs.size)

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    @property
    def padded_bytes(self) -> int:
        """Byte sum with each op DW-padded (TLP payload alignment)."""
        return int((-(-self.sizes // DW_BYTES) * DW_BYTES).sum())

    @property
    def footprint(self) -> IntervalSet:
        if self._footprint is None:
            self._footprint = IntervalSet.from_ranges(self.addrs, self.sizes)
        return self._footprint

    def geometry(self, line_bytes: int) -> LineGeometry:
        geo = self._geometry.get(line_bytes)
        if geo is None:
            geo = self._geometry[line_bytes] = line_geometry(
                self.footprint, line_bytes
            )
        return geo

    def window_segments(self, window_bytes: int) -> int:
        """Contiguous same-window segments of the issue-order stream.

        The remote-write queue flushes on every WINDOW_MISS, so each
        transition of ``addr >> offset_bits`` between consecutive ops
        costs one flush; the segment count is a lower bound on the
        packet count.
        """
        seg = self._segments.get(window_bytes)
        if seg is None:
            if self.addrs.size == 0:
                seg = 0
            else:
                w = self.addrs // window_bytes
                seg = 1 + int(np.count_nonzero(w[1:] != w[:-1]))
            self._segments[window_bytes] = seg
        return seg

    def pack_profile(self, line_bytes: int) -> PackProfile:
        """Issue-order revisit-distance profile (FinePack epoch model)."""
        prof = self._profiles.get(line_bytes)
        if prof is None:
            prof = self._profiles[line_bytes] = _build_pack_profile(
                self.addrs, self.sizes, line_bytes
            )
        return prof


@dataclass
class PhaseStats:
    """Per-destination statistics of one kernel phase."""

    gpu: int
    stores: dict[int, DstOps]
    atomics: dict[int, DstOps]

    def destinations(self) -> list[int]:
        return sorted(set(self.stores) | set(self.atomics))


def split_by_dst(batch) -> dict[int, DstOps]:
    """Group a RemoteStoreBatch's columns by destination, order kept."""
    out: dict[int, DstOps] = {}
    if batch.count == 0:
        return out
    for dst in batch.destinations():
        idx = np.flatnonzero(batch.dsts == dst)
        out[int(dst)] = DstOps(batch.addrs[idx], batch.sizes[idx])
    return out


def phase_stats(phase: KernelPhase) -> PhaseStats:
    """Per-destination stats for a phase, memoized by content digest."""
    key = (phase.gpu, phase.digest)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    stats = PhaseStats(
        gpu=phase.gpu,
        stores=split_by_dst(phase.stores),
        atomics=split_by_dst(phase.atomics),
    )
    if len(_memo) >= _MEMO_MAX_ENTRIES:
        _memo.pop(next(iter(_memo)))
    _memo[key] = stats
    return stats


def clear_memo() -> None:
    """Drop every cross-run memo (tests, benchmark passes).

    That is the phase-stats memo, the model-layer memos and the DES
    byte ledger's written-and-read sets."""
    _memo.clear()
    from ..sim import metrics
    from . import model

    model._PAIR_MEMO.clear()
    model._CLS_MEMO.clear()
    metrics._written_read.clear()
