"""Discrete-event simulation kernel.

A minimal, deterministic event engine: events are (time, sequence,
callback) triples in a heap; ties in time break by scheduling order so
runs are exactly reproducible.  The multi-GPU system schedules message
injections, kernel completions and barrier checks through it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..perf.config import scalar_mode

# Events are plain (time, seq, fn, args) tuples: tuple comparison stays
# in C, and the seq tiebreaker both keeps ordering deterministic and
# prevents comparisons ever reaching the callable.


class Engine:
    """A deterministic discrete-event engine.

    ``tracer`` is an optional :class:`repro.obs.Tracer`; when present
    its :meth:`~repro.obs.Tracer.engine_step` hook runs after every
    processed event (the invariant checker uses it to assert monotonic
    engine time).  The ``None`` default keeps the hot loop to a single
    pointer comparison.
    """

    def __init__(self, tracer=None) -> None:
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
        self._tracer = tracer
        self._fast = not scalar_mode()

    def schedule(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at simulated ``time``.

        Scheduling in the past is a logic error and raises immediately
        rather than silently warping time.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} ns; current time is {self.now} ns"
            )
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def schedule_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        self.schedule(self.now + delay, fn, *args)

    @property
    def pending(self) -> int:
        return len(self._heap)

    def step(self) -> bool:
        """Process one event; returns False when the heap is empty."""
        if not self._heap:
            return False
        time, _, fn, args = heapq.heappop(self._heap)
        self.now = time
        if self._tracer is not None:
            self._tracer.engine_step(time)
        fn(*args)
        self.events_processed += 1
        return True

    def run(self, until: float | None = None) -> float:
        """Drain events (up to ``until`` if given); returns final time."""
        if until is None and self._tracer is None and self._fast:
            # Inlined drain loop: same pops in the same order, without
            # the per-event method-call and tracer/until checks.
            heap = self._heap
            pop = heapq.heappop
            processed = 0
            while heap:
                time, _, fn, args = pop(heap)
                self.now = time
                fn(*args)
                processed += 1
            self.events_processed += processed
            return self.now
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return self.now
            self.step()
        return self.now

    def reset(self) -> None:
        self._heap.clear()
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
