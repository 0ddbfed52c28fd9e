"""Stage-attributed wall-clock profiling (``repro profile``).

The :class:`StageProfiler` attributes host wall-clock time to named
simulator stages -- trace generation, the warp coalescer, egress
engines, the packetizer/remote-write-queue, link serialization, ingress
draining, event dispatch, metrics classification.  Attribution is
*exclusive*: while a nested stage is open, time accrues to the
innermost stage only, so the per-stage numbers sum to the instrumented
total without double counting.

Accumulation lands in a :class:`~repro.obs.counters.CounterRegistry`
(``perf.stage.<name>.ns`` / ``perf.stage.<name>.calls``), the same
aggregate surface the observability layer samples, so profiles export
anywhere counters already do.

Instrumented call sites check the module-global :data:`ACTIVE` slot --
a single attribute load and ``None`` test when profiling is off, the
same zero-overhead-when-disabled discipline the tracer hooks use.
Activate with :func:`profiled`::

    profiler = StageProfiler()
    with profiled(profiler):
        ctx.run()
    print(profiler.report())
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..obs.counters import CounterRegistry

#: Canonical stage names, in pipeline order (used to sort reports).
STAGES = (
    "trace_generation",
    "coalescer",
    "egress",
    "packetizer_rwq",
    "link_serialization",
    "ingress_drain",
    "engine_dispatch",
    "metrics_classify",
)

#: The process's active profiler, or ``None`` (the common case).
#: Hot call sites read this attribute directly.
ACTIVE: "StageProfiler | None" = None


class StageProfiler:
    """Accumulates exclusive wall-clock time per named stage.

    ``registry`` defaults to a private
    :class:`~repro.obs.counters.CounterRegistry`; pass a shared one to
    merge profile counters with other observability counters.
    """

    def __init__(self, registry: CounterRegistry | None = None) -> None:
        self.registry = registry if registry is not None else CounterRegistry()
        self._stack: list[str] = []
        self._mark = 0
        self._clock = time.perf_counter_ns

    # -- hot path ---------------------------------------------------

    def begin(self, name: str) -> None:
        """Enter ``name``; charges elapsed time to the enclosing stage."""
        now = self._clock()
        if self._stack:
            self.registry.counter(f"perf.stage.{self._stack[-1]}.ns").inc(
                now - self._mark
            )
        self._stack.append(name)
        self.registry.counter(f"perf.stage.{name}.calls").inc()
        self._mark = self._clock()

    def end(self) -> None:
        """Leave the innermost stage, charging it the elapsed time."""
        now = self._clock()
        name = self._stack.pop()
        self.registry.counter(f"perf.stage.{name}.ns").inc(now - self._mark)
        self._mark = self._clock()

    @contextmanager
    def stage(self, name: str):
        self.begin(name)
        try:
            yield self
        finally:
            self.end()

    # -- reporting --------------------------------------------------

    def stage_ns(self) -> dict[str, float]:
        """``{stage: exclusive ns}`` in pipeline-then-name order."""
        out: dict[str, float] = {}
        seen = set()
        counters = self.registry.counters
        for name in STAGES:
            key = f"perf.stage.{name}.ns"
            if key in counters:
                out[name] = counters[key].value
                seen.add(name)
        for key in sorted(counters):
            if key.startswith("perf.stage.") and key.endswith(".ns"):
                name = key[len("perf.stage.") : -len(".ns")]
                if name not in seen:
                    out[name] = counters[key].value
        return out

    def stage_calls(self) -> dict[str, float]:
        return {
            name: self.registry.counters.get(
                f"perf.stage.{name}.calls", _ZERO
            ).value
            for name in self.stage_ns()
        }

    def breakdown(self) -> list[dict[str, float]]:
        """Machine-readable per-stage rows (ns, calls, share of total)."""
        ns = self.stage_ns()
        calls = self.stage_calls()
        total = sum(ns.values())
        return [
            {
                "stage": name,
                "ns": ns[name],
                "calls": calls[name],
                "share": ns[name] / total if total else 0.0,
            }
            for name in ns
        ]

    def total_ns(self) -> float:
        return sum(self.stage_ns().values())

    def report(self) -> str:
        """A human-readable stage table."""
        rows = self.breakdown()
        if not rows:
            return "no stages recorded"
        width = max(len(r["stage"]) for r in rows)
        lines = [f"{'stage':<{width}}  {'ms':>10}  {'share':>6}  {'calls':>9}"]
        for r in rows:
            lines.append(
                f"{r['stage']:<{width}}  {r['ns'] / 1e6:>10.2f}  "
                f"{r['share']:>6.1%}  {int(r['calls']):>9}"
            )
        lines.append(
            f"{'(instrumented total)':<{width}}  {self.total_ns() / 1e6:>10.2f}"
        )
        return "\n".join(lines)


class _Zero:
    value = 0.0


_ZERO = _Zero()


@contextmanager
def profiled(profiler: StageProfiler):
    """Install ``profiler`` as the process-global :data:`ACTIVE` one."""
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a StageProfiler is already active")
    ACTIVE = profiler
    profiler._mark = profiler._clock()
    try:
        yield profiler
    finally:
        ACTIVE = None
