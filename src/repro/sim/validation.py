"""Self-check harness for custom configurations.

Downstream users extending the simulator (new workloads, egress
engines, protocols) can run :func:`validate` on their combination to
check the invariants the stock test-suite enforces:

1. **byte conservation** -- every byte the trace stores remotely is
   delivered by the paradigm (sector/line engines may over-deliver,
   never under-deliver);
2. **release emptiness** -- no egress engine retains data across the
   kernel-end release;
3. **ledger consistency** -- payload classification partitions exactly
   into useful + wasted, and overhead is non-negative;
4. **timing sanity** -- every iteration takes at least its compute
   time, and the infinite-bandwidth paradigm is a lower bound.

Returns a :class:`ValidationReport`; ``raise_on_failure=True`` turns
violations into :class:`ValidationError` for use in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..trace.intervals import IntervalSet
from ..trace.stream import WorkloadTrace
from .metrics import RunMetrics
from .paradigms import Paradigm, make_paradigm
from .system import MultiGPUSystem


class ValidationError(Exception):
    """A simulator invariant was violated."""


@dataclass
class ValidationReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.checks if not ok]

    def summary(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            suffix = f" -- {detail}" if detail and not ok else ""
            lines.append(f"[{mark}] {name}{suffix}")
        return "\n".join(lines)


def _delivered_union(messages) -> IntervalSet:
    starts: list[int] = []
    lens: list[int] = []
    for msg in messages:
        single = msg.meta.get("range1")
        if single is not None:
            starts.append(single[0])
            lens.append(single[1])
            continue
        ranges = msg.meta.get("ranges")
        if ranges is not None:
            starts.extend(np.asarray(ranges[0]).tolist())
            lens.extend(np.asarray(ranges[1]).tolist())
    return IntervalSet.from_ranges(starts, lens)


def validate(
    trace: WorkloadTrace,
    paradigm: Paradigm | str = "finepack",
    system: MultiGPUSystem | None = None,
    raise_on_failure: bool = False,
) -> ValidationReport:
    """Run the invariant battery on one (trace, paradigm, system)."""
    report = ValidationReport()
    system = system or MultiGPUSystem.build(n_gpus=trace.n_gpus)
    if isinstance(paradigm, str):
        paradigm = make_paradigm(paradigm)

    # --- per-phase byte conservation and release emptiness ----------
    paradigm.attach(system.n_gpus, system.protocol)
    covers_stores = hasattr(paradigm, "engines")  # store-based paradigms
    for k, iteration in enumerate(trace.iterations):
        consumer = trace.iterations[min(k + 1, trace.n_iterations - 1)]
        reads = {p.gpu: p.reads for p in consumer.phases}
        for phase in iteration.phases:
            msgs = paradigm.phase_messages(phase, 0.0, 1_000.0, reads)
            if covers_stores:
                stored = phase.stores.footprint()
                if phase.atomics.count:
                    stored = stored.union(phase.atomics.footprint())
                # GPS-style subscription may legitimately elide unread
                # bytes; conservation then applies to the read subset.
                target = stored
                if getattr(paradigm, "name", "") == "gps":
                    all_reads = IntervalSet.empty()
                    for r in reads.values():
                        all_reads = all_reads.union(r)
                    target = stored.intersect(all_reads)
                missing = target.difference(_delivered_union(msgs))
                report.record(
                    f"coverage[it{k},gpu{phase.gpu}]",
                    not missing,
                    f"{missing.total_bytes} stored bytes never sent"
                    if missing
                    else "",
                )
        # Release emptiness across all engines of store paradigms.
        for engine in getattr(paradigm, "engines", []):
            leftovers = engine.on_release(2_000.0)
            report.record(
                f"release-empty[it{k}]",
                not leftovers,
                f"{len(leftovers)} packets retained" if leftovers else "",
            )
            if leftovers:
                break

    # --- full timed run: ledger + timing sanity ----------------------
    # (run() resets the system and re-attaches the paradigm, giving it
    # fresh engine state.)
    metrics: RunMetrics = system.run(trace, paradigm)
    b = metrics.bytes
    report.record(
        "ledger-partition",
        b.payload == b.useful + b.wasted and b.overhead >= 0,
        f"payload {b.payload} != useful {b.useful} + wasted {b.wasted}",
    )
    report.record(
        "timing-floor",
        metrics.total_time_ns >= metrics.compute_time_ns * 0.999,
        "the run finished before its compute",
    )
    infinite = system.run(trace, make_paradigm("infinite"))
    report.record(
        "infinite-lower-bound",
        metrics.total_time_ns >= infinite.total_time_ns * 0.999,
        f"{metrics.total_time_ns} < infinite {infinite.total_time_ns}",
    )

    if raise_on_failure and not report.passed:
        raise ValidationError("; ".join(report.failures()))
    return report
