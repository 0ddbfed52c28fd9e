"""Run orchestration: one composition root for every experiment surface.

Layering (see ``docs/architecture.md``)::

    repro.registry          names -> components (workloads, paradigms,
                            topologies, fault scenarios)
          |
    repro.run.RunSpec       one frozen, hashable description of a run
          |
    repro.run.RunContext    composition root: builds workload, trace,
                            system, paradigm, injector from a spec
          |
    repro.run.executor      fans RunSpec grids over processes with a
                            content-addressed trace cache

Every run the CLI, the sweeps, the chaos harness and the benchmarks
make (``MultiGPUSystem.build`` + paradigm + tracer + injector
plumbing) flows through :class:`RunContext`, so a new knob is plumbed
in exactly one place: add a :class:`RunSpec` field and consume it in
the context.

Quick start::

    from repro.run import RunSpec, RunContext, execute_grid

    spec = RunSpec(workload="jacobi", paradigm="finepack", n_gpus=4)
    metrics = RunContext(spec).run()

    grid = [spec.with_options(paradigm=p) for p in ("p2p", "dma", "finepack")]
    outcomes = execute_grid(grid, jobs=4)      # parallel, order-preserving

The executor is *supervised* (:mod:`repro.run.resilience`): per-cell
futures with wall-clock timeouts, retry/backoff/quarantine for crashed
or hung workers, ``strict=False`` partial-grid degradation
(:class:`GridOutcome` of ``RunOutcome | CellFailure``), plus durability
via the content-addressed :class:`OutcomeStore` and a resumable
:class:`GridJournal`::

    grid = execute_grid(specs, jobs=4, strict=False,
                        timeout=120.0, retries=2,
                        journal="runs/", resume=True)
    for failure in grid.failures():
        print(failure.as_dict())
"""

from .cache import CACHE_ENV, TraceCache
from .context import RunContext, RunOutcome
from .executor import (
    CellExecutionError,
    SweepPoint,
    SweepResult,
    SweepRun,
    aggregate_cache_stats,
    execute_grid,
    labeled_sweep,
    refine_top_k,
)
from .outcomes import OUTCOME_ENV, OutcomeStore
from .resilience import (
    CellFailure,
    GridExecutionError,
    GridJournal,
    GridOutcome,
    RetryPolicy,
    grid_key,
)
from .spec import RunSpec, freeze_params

__all__ = [
    "RunSpec",
    "RunContext",
    "RunOutcome",
    "TraceCache",
    "CACHE_ENV",
    "SweepPoint",
    "SweepResult",
    "SweepRun",
    "aggregate_cache_stats",
    "execute_grid",
    "labeled_sweep",
    "refine_top_k",
    "freeze_params",
    "OutcomeStore",
    "OUTCOME_ENV",
    "RetryPolicy",
    "CellFailure",
    "CellExecutionError",
    "GridOutcome",
    "GridExecutionError",
    "GridJournal",
    "grid_key",
]
