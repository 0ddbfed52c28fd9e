"""Vectorized byte-interval algebra.

Byte accounting (paper Fig. 10) needs set operations over address
ranges: the union of all bytes a GPU stored remotely, its intersection
with what the consumer read, differences for over-transfer, and so on.
An :class:`IntervalSet` is a normalized (sorted, disjoint, non-adjacent)
set of half-open ``[start, start+length)`` byte ranges backed by numpy
arrays, with union/intersection/difference in O(n log n).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def sha256_columns(*columns: np.ndarray) -> bytes:
    """One SHA-256 over length-prefixed int64 columns.

    hashlib reads the (C-contiguous) arrays through the buffer
    protocol, so memory-mapped columns are hashed without a copy.
    """
    h = hashlib.sha256()
    for col in columns:
        col = np.ascontiguousarray(col, dtype=np.int64)
        h.update(col.size.to_bytes(8, "little"))
        h.update(col)
    return h.digest()


def _as_arrays(starts, lengths) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(starts, dtype=np.int64).ravel()
    l = np.asarray(lengths, dtype=np.int64).ravel()
    if s.shape != l.shape:
        raise ValueError("starts and lengths must have equal shapes")
    shortest = int(l.min()) if l.size else 1
    if shortest < 0:
        raise ValueError("interval lengths must be non-negative")
    if shortest == 0:
        keep = l > 0
        s, l = s[keep], l[keep]
    return s, l


@dataclass(frozen=True)
class IntervalSet:
    """A normalized set of half-open byte intervals."""

    starts: np.ndarray
    ends: np.ndarray

    @staticmethod
    def from_ranges(starts, lengths) -> "IntervalSet":
        """Build from possibly-overlapping, unordered ranges."""
        s, l = _as_arrays(starts, lengths)
        if s.size == 0:
            return IntervalSet.empty()
        e = s + l
        if (s[1:] >= s[:-1]).all():
            # ``bound[i]`` is the end of the first i + 1 ranges' union.
            bound = np.maximum.accumulate(e)
        else:
            # Sort starts and ends apart: while every range of rank < i
            # ends before start i, those are exactly the i smallest
            # ends (each later range ends past start i), so the i-th
            # smallest end decides a gap just as the running maximum
            # of sorted ranges does.
            s = np.sort(s)
            bound = np.sort(e)
        new_run = np.empty(s.size + 1, dtype=bool)
        new_run[0] = new_run[-1] = True
        # Strictly-greater keeps adjacent ranges merged ([0,4)+[4,8) -> [0,8)).
        np.greater(s[1:], bound[:-1], out=new_run[1:-1])
        # A run ends at the bound of its last rank: every earlier run
        # ended before it started, and every later range starts after.
        return IntervalSet(s[new_run[:-1]], bound[new_run[1:]])

    @staticmethod
    def empty() -> "IntervalSet":
        z = np.empty(0, dtype=np.int64)
        return IntervalSet(z, z.copy())

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of the normalized intervals; sets are immutable once
        built, so it is computed once."""
        return sha256_columns(self.starts, self.ends)

    @property
    def total_bytes(self) -> int:
        return int((self.ends - self.starts).sum())

    def __len__(self) -> int:
        return int(self.starts.size)

    def __bool__(self) -> bool:
        return self.starts.size > 0

    def union(self, other: "IntervalSet") -> "IntervalSet":
        starts = np.concatenate([self.starts, other.starts])
        lengths = np.concatenate(
            [self.ends - self.starts, other.ends - other.starts]
        )
        return IntervalSet.from_ranges(starts, lengths)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        if not self or not other:
            return IntervalSet.empty()
        # For each interval in self, find overlapping intervals in other
        # via searchsorted on the normalized arrays.
        lo = np.searchsorted(other.ends, self.starts, side="right")
        hi = np.searchsorted(other.starts, self.ends, side="left")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return IntervalSet.empty()
        self_idx = np.repeat(np.arange(self.starts.size), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(total) - offsets[self_idx]
        other_idx = lo[self_idx] + within
        s = np.maximum(self.starts[self_idx], other.starts[other_idx])
        e = np.minimum(self.ends[self_idx], other.ends[other_idx])
        # Already normalized: the pieces come out sorted, non-empty, and
        # separated by the gaps of one normalized side or the other.
        return IntervalSet(s, e)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Bytes in self but not in other."""
        overlap = self.intersect(other)
        if not overlap:
            return self
        # Sweep: subtract overlap (a subset of self) interval by interval.
        out_s: list[int] = []
        out_e: list[int] = []
        oi = 0
        os_, oe_ = overlap.starts, overlap.ends
        for s, e in zip(self.starts.tolist(), self.ends.tolist()):
            cur = s
            while oi < os_.size and os_[oi] < e:
                if oe_[oi] <= cur:
                    oi += 1
                    continue
                if os_[oi] > cur:
                    out_s.append(cur)
                    out_e.append(int(os_[oi]))
                cur = int(oe_[oi])
                if cur >= e:
                    break
                oi += 1
            if cur < e:
                out_s.append(cur)
                out_e.append(e)
            # An overlap interval can span into the next self interval
            # only if self intervals are adjacent, which normalization
            # forbids, so advancing oi greedily is safe.
        return IntervalSet(
            np.asarray(out_s, dtype=np.int64), np.asarray(out_e, dtype=np.int64)
        )

    def contains(self, addr: int) -> bool:
        i = int(np.searchsorted(self.starts, addr, side="right")) - 1
        return i >= 0 and addr < self.ends[i]

    def shift(self, delta: int) -> "IntervalSet":
        return IntervalSet(self.starts + delta, self.ends + delta)
