"""Profiling entry points behind ``repro profile`` and the perf bench.

:func:`profile_run` executes one :class:`~repro.run.spec.RunSpec` with
a :class:`~repro.perf.profiler.StageProfiler` installed and returns the
metrics, the per-stage breakdown and the end-to-end wall clock --
under either the vectorized fast paths (default) or the scalar
reference paths (``scalar=True``), which is how the bench measures the
speedup and how equivalence is demonstrated in the field.

:func:`fingerprint_metrics` hashes a :class:`~repro.sim.metrics.
RunMetrics` (and the order-sensitive structures inside it) into a
stable digest: two runs fingerprint equal iff every float is
bit-identical, every int equal, and every dict in the same insertion
order.  It is the definition of "byte-identical" used by the perf
tests and ``tools/bench_perf.py``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import time
from dataclasses import dataclass

from ..obs.counters import CounterRegistry
from ..run.cache import TraceCache
from ..run.context import RunContext
from ..run.spec import RunSpec
from .config import scalar_reference
from .profiler import StageProfiler, profiled


def _canon(value):
    """Lossless canonical form: floats as hex, dicts keep their order."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        # A list of pairs, not an object: JSON objects would hide
        # insertion-order differences (by_kind, link_stats).
        return [[_canon(k), _canon(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [
            [f.name, _canon(getattr(value, f.name))]
            for f in dataclasses.fields(value)
        ]
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalars
        return _canon(item())
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")


def fingerprint_metrics(metrics) -> str:
    """A stable digest of a :class:`RunMetrics` (see module docstring)."""
    payload = json.dumps(_canon(metrics), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class ProfileResult:
    """One profiled run: metrics, stage rows, wall clock, fingerprint."""

    spec: RunSpec
    metrics: object
    profiler: StageProfiler
    wall_ns: int
    scalar: bool

    @property
    def stages(self) -> list[dict[str, float]]:
        return self.profiler.breakdown()

    @property
    def fingerprint(self) -> str:
        return fingerprint_metrics(self.metrics)

    def as_dict(self) -> dict:
        """Machine-readable report (the ``repro profile --json`` body)."""
        return {
            "workload": self.spec.workload,
            "paradigm": self.spec.paradigm,
            "n_gpus": self.spec.n_gpus,
            "iterations": self.spec.iterations,
            "topology": self.spec.topology,
            "topology_params": dict(self.spec.topology_params),
            "mode": "scalar" if self.scalar else "fast",
            "wall_ms": self.wall_ns / 1e6,
            "instrumented_ms": self.profiler.total_ns() / 1e6,
            "stages": self.stages,
            "metrics_fingerprint": self.fingerprint,
            "summary": self.metrics.summary(),
        }


def profile_run(
    spec: RunSpec,
    *,
    scalar: bool = False,
    registry: CounterRegistry | None = None,
    trace_cache: TraceCache | None = None,
) -> ProfileResult:
    """Execute ``spec`` under a stage profiler; returns the breakdown.

    ``scalar=True`` forces every fast path off (the reference
    implementation); the default profiles the vectorized paths.  A
    shared ``trace_cache`` lets callers exclude trace generation from a
    comparison by pre-warming it.
    """
    profiler = StageProfiler(registry)
    with scalar_reference(scalar):
        # Build components inside the scope so construction-time
        # switch reads (packetizer, queue partitions) see it.
        ctx = RunContext(spec, trace_cache=trace_cache)
        t0 = time.perf_counter_ns()
        with profiled(profiler):
            metrics = ctx.run()
        wall = time.perf_counter_ns() - t0
    return ProfileResult(
        spec=spec, metrics=metrics, profiler=profiler, wall_ns=wall, scalar=scalar
    )
