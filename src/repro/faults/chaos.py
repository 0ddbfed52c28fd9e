"""Chaos sweeps: degradation curves under scaled fault intensity.

:func:`chaos_sweep` replays one workload under every paradigm at a
ladder of fault intensities (``schedule.scaled(i)`` for each point),
measuring how much each communication paradigm's advantage survives a
noisy fabric -- the fault-injection analogue of the paper's Figure 9.
Runs that degrade past the point of completion
(:class:`~repro.faults.errors.DegradedRunError`) are reported as
``DEGRADED`` rows carrying their partial metrics rather than aborting
the sweep.

The sweep is expressed as a :class:`repro.run.RunSpec` grid executed
through :func:`repro.run.execute_grid`, so ``jobs=N`` fans the
(intensity x paradigm) cells over worker processes with results
byte-identical to the serial sweep.  Simulation modules are imported
lazily so ``repro.faults`` stays importable from the interconnect
layer without cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Sequence

from .schedule import FaultSchedule

#: Default intensity ladder for degradation curves.
DEFAULT_INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Paradigms swept by default (the paper's Figure 9 set minus the
#: idealized infinite-bandwidth baseline).
DEFAULT_PARADIGMS = ("p2p", "dma", "finepack")


@dataclass
class ChaosPoint:
    """One (intensity, paradigm) cell of a chaos sweep."""

    intensity: float
    paradigm: str
    metrics: object  # RunMetrics (partial when degraded)
    degraded: bool = False
    reasons: tuple[str, ...] = ()

    @property
    def time_ms(self) -> float:
        return self.metrics.total_time_ns / 1e6

    def as_dict(self) -> dict:
        out = {
            "intensity": self.intensity,
            "paradigm": self.paradigm,
            "degraded": self.degraded,
            "time_ms": self.time_ms,
            "goodput": self.metrics.goodput,
            **self.metrics.faults.as_dict(),
        }
        if self.reasons:
            out["reasons"] = list(self.reasons)
        return out


@dataclass
class ChaosResult:
    """A full sweep: scenario identity plus every measured point."""

    scenario: str
    workload: str
    points: list[ChaosPoint] = field(default_factory=list)
    #: Aggregate trace-cache traffic (``hits``/``misses``/``corrupt``).
    #: Accounting only, like everything below: excluded from equality
    #: and from :meth:`as_dict`.
    cache_stats: dict = field(default_factory=dict, compare=False)
    #: Executor retry/quarantine accounting.
    retry_stats: dict = field(default_factory=dict, compare=False)
    #: Outcome-store traffic for the sweep.
    outcome_cache: dict = field(default_factory=dict, compare=False)
    #: :class:`~repro.run.resilience.CellFailure` records of cells that
    #: exhausted their retry budget in a ``strict=False`` sweep; such
    #: cells have no :class:`ChaosPoint`.
    failures: list = field(default_factory=list, compare=False)

    def baseline(self, paradigm: str) -> ChaosPoint | None:
        """The intensity-0 (fault-free) point for one paradigm."""
        for p in self.points:
            if p.paradigm == paradigm and p.intensity == 0.0:
                return p
        return None

    def slowdown(self, point: ChaosPoint) -> float | None:
        """Run time of ``point`` relative to its fault-free baseline."""
        base = self.baseline(point.paradigm)
        if base is None or base.metrics.total_time_ns == 0:
            return None
        return point.metrics.total_time_ns / base.metrics.total_time_ns

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "workload": self.workload,
            "points": [
                {**p.as_dict(), "slowdown": self.slowdown(p)} for p in self.points
            ],
        }

    def write_json(self, path_or_file: str | IO[str]) -> None:
        obj = self.as_dict()
        if hasattr(path_or_file, "write"):
            json.dump(obj, path_or_file, indent=2)
        else:
            with open(path_or_file, "w") as f:
                json.dump(obj, f, indent=2)


def chaos_sweep(
    base,
    schedule: FaultSchedule,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    paradigms: Sequence[str] = DEFAULT_PARADIGMS,
    tracer_factory=None,
    jobs: int = 1,
    trace_cache=None,
    **resilience,
) -> ChaosResult:
    """Sweep ``schedule`` intensity over ``paradigms`` for one workload.

    Parameters
    ----------
    base:
        The :class:`repro.run.RunSpec` every cell varies: its workload,
        shape and fabric settings (the injector's retransmit parameters
        come from ``base.fabric``).  Its ``topology`` wins over the
        scenario's topology hint; with neither, cells run on
        ``single_switch``.
    schedule:
        The scenario; each sweep point runs ``schedule.scaled(i)``.
    tracer_factory:
        Optional ``label -> Tracer`` callable; when given, every run is
        traced (and invariant-checked) under label
        ``"i{intensity}/{paradigm}"``.  Tracers are in-process objects,
        so this requires ``jobs=1``.
    jobs:
        Worker-process count for the (intensity x paradigm) grid.
        Results are byte-identical to the serial sweep; each cell is an
        isolated simulation and the grid order is deterministic.
    trace_cache:
        Optional :class:`repro.run.TraceCache` (or directory) sharing
        the workload trace across worker processes and invocations.
    **resilience:
        Supervised-executor knobs forwarded to
        :func:`repro.run.execute_grid` -- ``strict``, ``timeout``,
        ``retries``, ``retry``, ``outcome_store``, ``journal``,
        ``resume``.  With ``strict=False`` a cell that exhausts its
        retry budget lands in :attr:`ChaosResult.failures` instead of
        aborting the sweep (crash-survivable chaos campaigns).

    Every cell replays the same workload trace, so the sweep isolates
    fabric behavior exactly like the paper's paradigm comparisons.
    """
    from ..run import (
        CellFailure,
        GridExecutionError,
        aggregate_cache_stats,
        execute_grid,
    )

    kind = base.topology or schedule.topology or "single_switch"
    scenario_json = schedule.to_json(indent=None)
    grid = [(i, name) for i in intensities for name in paradigms]
    specs = [
        base.with_options(
            paradigm=name,
            intensity=float(intensity),
            scenario=scenario_json,
            topology=kind,
            with_credits=schedule.with_credits,
        )
        for intensity, name in grid
    ]
    strict = resilience.pop("strict", True)
    grid_outcome = execute_grid(
        specs,
        jobs=jobs,
        trace_cache=trace_cache,
        tracer_factory=tracer_factory,
        labels=[f"i{intensity:g}/{name}" for intensity, name in grid],
        strict=False,
        **resilience,
    )
    if strict and not grid_outcome.ok:
        raise GridExecutionError(grid_outcome)

    result = ChaosResult(
        scenario=schedule.name,
        workload=base.workload,
        cache_stats=aggregate_cache_stats(grid_outcome),
        retry_stats=dict(grid_outcome.retry_stats),
        outcome_cache=dict(grid_outcome.outcome_cache),
    )
    for (intensity, name), cell in zip(grid, grid_outcome.cells):
        if isinstance(cell, CellFailure):
            result.failures.append(cell)
            continue
        result.points.append(
            ChaosPoint(
                intensity,
                name,
                cell.metrics,
                degraded=cell.degraded,
                reasons=cell.reasons,
            )
        )
    return result


def format_chaos_table(result: ChaosResult) -> str:
    """The degradation table ``repro chaos`` prints."""
    from ..analysis.report import format_table

    rows = []
    for p in result.points:
        slowdown = result.slowdown(p)
        f = p.metrics.faults
        rows.append(
            [
                f"{p.intensity:g}",
                p.paradigm,
                "DEGRADED" if p.degraded else "ok",
                p.time_ms,
                "-" if slowdown is None else f"{slowdown:.2f}x",
                round(p.metrics.goodput, 4),
                f.replays,
                f.retransmits,
                f.rerouted_messages,
                f.dropped_messages,
            ]
        )
    return format_table(
        f"chaos: {result.workload} under '{result.scenario}'",
        ["intensity", "paradigm", "status", "time_ms", "slowdown",
         "goodput", "replays", "rtx", "rerouted", "dropped"],
        rows,
        float_fmt="{:.3f}",
    )
