"""Sorting and deduplicating integer id arrays at array speed.

Since numpy 2.3, a bare ``np.unique(a)`` (no ``return_index``,
``return_inverse`` or ``return_counts``) builds a hash table and then
sorts its keys.  On the id arrays trace generation and the DES group by
-- vertex, page and GPU ids, up to millions of them -- that is 14-80x
slower than sorting and dropping repeats, or than a presence mask when
the ids are known to lie in ``[0, bound)``.  :func:`unique_ints` is the
one helper for that job, and a tier-1 test keeps bare ``np.unique``
calls out of ``src/repro``.  :func:`stable_argsort` likewise gives
small-range ids numpy's radix sort.
"""

from __future__ import annotations

import numpy as np


def unique_ints(ids: np.ndarray, bound: int | None = None) -> np.ndarray:
    """Sorted distinct values of ``ids``, equal to ``np.unique(ids)``.

    Values and dtype match numpy's.  With ``bound``, every id must lie
    in ``[0, bound)``; a presence mask of ``bound`` bytes then replaces
    the sort, which pays off when ``bound`` is not much larger than
    ``ids``.
    """
    ids = np.asarray(ids)
    if bound is not None:
        present = np.zeros(bound, dtype=bool)
        present[ids] = True
        return np.flatnonzero(present).astype(ids.dtype, copy=False)
    out = np.sort(ids, axis=None)
    if out.size > 1:
        first = np.empty(out.size, dtype=bool)
        first[0] = True
        np.not_equal(out[1:], out[:-1], out=first[1:])
        out = out[first]
    return out


def stable_argsort(ids: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for ids in ``[0, bound)``.

    Ids that fit 16 bits are narrowed first, so numpy radix-sorts them
    instead of merge-sorting 64-bit keys (about 6x faster).
    """
    if bound <= 1 << 8:
        ids = ids.astype(np.uint8)
    elif bound <= 1 << 16:
        ids = ids.astype(np.uint16)
    return np.argsort(ids, kind="stable")
