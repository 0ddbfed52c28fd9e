"""GPU cache hierarchy model.

Two pieces matter for FinePack (paper Sec. III):

* The L1 coalesces warp accesses (``repro.gpu.coalescer``) but is
  write-through for remote data, so remote stores leave the SM at
  sub-cache-line granularity.
* The L2 is a *memory-side* cache -- the point of coherence for the
  GPU's locally attached memory only.  Writes to peer GPU memory bypass
  it entirely on egress, and remotely homed data is never cached, so no
  inter-GPU coherence traffic exists and FinePack may freely buffer and
  reorder remote stores.

:class:`SetAssociativeCache` is a conventional LRU cache model.
:class:`L2Cache` wraps it with the memory-side semantics.  It is a
standalone model of that argument: no timing path reads it.  A set is
allocated the first time it is touched, so an untouched set costs
nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .memory import owner_of


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    bypasses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """An LRU set-associative cache over 128-byte lines."""

    def __init__(
        self, capacity_bytes: int, ways: int = 16, line_bytes: int = 128
    ) -> None:
        if capacity_bytes % (ways * line_bytes):
            raise ValueError(
                f"capacity {capacity_bytes} not divisible by "
                f"ways*line ({ways * line_bytes})"
            )
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = capacity_bytes // (ways * line_bytes)
        #: Set index -> its lines in LRU order; created on first access.
        self._sets: dict[int, OrderedDict[int, None]] = {}
        self.stats = CacheStats()

    def access(self, addr: int) -> bool:
        """Touch the line containing ``addr``; returns True on hit."""
        line = addr // self.line_bytes
        s = self._sets.get(line % self.n_sets)
        if s is None:
            s = self._sets[line % self.n_sets] = OrderedDict()
        elif line in s:
            s.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[line] = None
        return False

    def contains(self, addr: int) -> bool:
        line = addr // self.line_bytes
        return line in self._sets.get(line % self.n_sets, ())

    def flush(self) -> None:
        self._sets.clear()


class L2Cache:
    """Memory-side L2: caches only lines homed in this GPU's memory."""

    def __init__(self, gpu: int, capacity_bytes: int = 6 * 1024 * 1024) -> None:
        self.gpu = gpu
        self._cache = SetAssociativeCache(capacity_bytes)
        self.stats = self._cache.stats

    def access(self, addr: int) -> bool:
        """Access ``addr``; remote-homed addresses bypass (paper Sec. III)."""
        if owner_of(addr) != self.gpu:
            self.stats.bypasses += 1
            return False
        return self._cache.access(addr)

    def flush(self) -> None:
        self._cache.flush()
