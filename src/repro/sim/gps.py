"""GPS subscription learning (paper Sec. VI-B comparison, refined).

GPS (MICRO 2021) does not know statically which replicas need which
data: it starts by *publishing* every store to every replica, observes
which pages each subscriber actually reads, and dynamically
*unsubscribes* replicas from pages they never touch -- eliminating that
traffic from later epochs.

:class:`SubscriptionTable` implements that mechanism at page
granularity: epoch 0 broadcasts, each epoch's consumer reads are
learned, and pages written-but-unread get unsubscribed for subsequent
epochs.  The learned variant of :class:`~repro.sim.paradigms.GPSParadigm`
uses it instead of the oracle read-set filter, reproducing GPS's
characteristic first-epoch overshoot followed by steady-state savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..trace.ids import unique_ints
from ..trace.intervals import IntervalSet


@dataclass
class SubscriptionTable:
    """Per-destination page subscription state for one producer GPU.

    Pages default to *subscribed*; :meth:`learn_epoch` unsubscribes the
    pages a destination was sent but did not read.  A page that is read
    again later re-subscribes (GPS handles resubscription through
    faults; we model it as immediate).
    """

    page_bytes: int = 4096
    _unsubscribed: dict[int, set[int]] = field(default_factory=dict)
    #: Pages written to each destination during the current epoch.
    _written: dict[int, set[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.page_bytes & (self.page_bytes - 1):
            raise ValueError(f"page_bytes must be a power of two: {self.page_bytes}")

    def filter_stores(
        self, addrs: np.ndarray, sizes: np.ndarray, dsts: np.ndarray
    ) -> np.ndarray:
        """Boolean keep-mask applying current subscriptions.

        Also records the written pages of the stores that survive, for
        this epoch's learning step.
        """
        keep = np.ones(addrs.size, dtype=bool)
        pages = addrs // self.page_bytes
        for dst in np.flatnonzero(np.bincount(dsts)).tolist():
            idx = np.flatnonzero(dsts == dst)
            dead = self._unsubscribed.get(dst)
            if dead:
                drop = np.fromiter(
                    (int(p) in dead for p in pages[idx]), bool, idx.size
                )
                keep[idx[drop]] = False
                idx = idx[~drop]
            written = self._written.setdefault(dst, set())
            written.update(unique_ints(pages[idx]).tolist())
        return keep

    def learn_epoch(self, consumer_reads: dict[int, IntervalSet]) -> None:
        """End of epoch: unsubscribe written-but-unread pages."""
        for dst, written in self._written.items():
            reads = consumer_reads.get(dst)
            read_pages: set[int] = set()
            if reads is not None and reads:
                for s, e in zip(reads.starts.tolist(), reads.ends.tolist()):
                    read_pages.update(
                        range(s // self.page_bytes, (e - 1) // self.page_bytes + 1)
                    )
            dead = self._unsubscribed.setdefault(dst, set())
            dead |= written - read_pages
            # Pages read this epoch resubscribe.
            dead -= read_pages
        self._written.clear()
