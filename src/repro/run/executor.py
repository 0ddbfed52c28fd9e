"""Grid execution: supervised, resumable, serial or process-parallel.

:func:`execute_grid` maps a sequence of :class:`RunSpec` onto results
**in input order**, either in-process (``jobs=1``) or fanned over a
worker-process pool.  Each grid cell is an isolated simulation (its own
system, paradigm and injector built by a fresh :class:`RunContext`),
which is what makes the fan-out safe: serial and parallel execution
produce byte-identical metrics, and the test suite holds us to that.

Unlike a bare ``pool.map``, the parallel path is *supervised*
(:mod:`repro.run.resilience`): every cell is an individual future with

* a per-attempt wall-clock timeout -- a hung worker is detected, the
  pool killed and replaced, and the cell charged a failed attempt;
* retry with exponential backoff and deterministic jitter for crashed,
  hung, or raising cells, escalating to *quarantine* once the attempt
  budget (:class:`RetryPolicy`) is spent;
* graceful partial-grid degradation: with ``strict=False`` the grid
  returns a :class:`GridOutcome` whose cells are ``RunOutcome |
  CellFailure`` instead of raising -- the executor-level mirror of
  :class:`~repro.faults.errors.DegradedRunError`.

Durability comes from two optional pieces: a content-addressed
:class:`~repro.run.outcomes.OutcomeStore` persisting completed
outcomes under ``RunSpec.key()`` (identical cells are never simulated
twice, across processes and invocations), and a
:class:`~repro.run.resilience.GridJournal` of cell lifecycle events so
an interrupted grid resumes (``resume=True``) by re-running only
unfinished or quarantined cells -- with final results byte-identical
to an uninterrupted run.

Worker processes share traces through the content-addressed
:class:`TraceCache`: parallel runs get a shared on-disk cache (the
caller's, ``$REPRO_TRACE_CACHE``, or an ephemeral temp directory whose
cleanup is also registered with :mod:`atexit`, so an interrupt cannot
strand it).

:func:`labeled_sweep` is the sweep-shaped convenience used by the CLI
and benchmarks: labeled specs plus an automatically derived single-GPU
baseline, folded into a :class:`SweepResult` of labeled speedups.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ..sim.metrics import RunMetrics
from .cache import TraceCache
from .context import RunContext, RunOutcome
from .outcomes import OutcomeStore
from .resilience import (
    CellFailure,
    GridExecutionError,
    GridJournal,
    GridOutcome,
    RetryPolicy,
    grid_key,
)
from .spec import RunSpec

#: Ephemeral shared-cache directories are created under this prefix;
#: cleanup is registered with :mod:`atexit` as well as ``finally`` so
#: interrupts cannot strand them.
EPHEMERAL_CACHE_PREFIX = "repro-trace-cache-"


class CellExecutionError(Exception):
    """Pickle-safe wrapper for an exception raised inside a worker.

    Worker exceptions must cross the process boundary; arbitrary
    exception types may not unpickle (or may unpickle with their
    payload silently dropped), so the worker entry point wraps them in
    this flat record: original type name, message, the worker's pid,
    and the formatted traceback.
    """

    def __init__(
        self,
        error_type: str,
        message: str,
        worker_pid: int | None = None,
        traceback_text: str = "",
    ) -> None:
        self.error_type = error_type
        self.message = message
        self.worker_pid = worker_pid
        self.traceback_text = traceback_text
        super().__init__(f"{error_type}: {message} (worker pid {worker_pid})")

    def __reduce__(self):
        return (
            CellExecutionError,
            (self.error_type, self.message, self.worker_pid, self.traceback_text),
        )


def _coerce_cache(trace_cache) -> TraceCache:
    if trace_cache is None:
        return TraceCache.from_env()
    if isinstance(trace_cache, TraceCache):
        return trace_cache
    return TraceCache(trace_cache)


def _coerce_store(outcome_store) -> OutcomeStore | None:
    if outcome_store is None or isinstance(outcome_store, OutcomeStore):
        return outcome_store
    return OutcomeStore(outcome_store)


def _execute_one(payload: tuple[RunSpec, str | None]) -> RunOutcome:
    """Worker entry point: one spec against a (shared-root) cache."""
    spec, cache_root = payload
    try:
        outcome = RunContext(spec, TraceCache(cache_root)).execute()
    except Exception as exc:
        raise CellExecutionError(
            type(exc).__name__, str(exc), os.getpid(), traceback.format_exc()
        ) from None
    outcome.worker_pid = os.getpid()
    return outcome


@contextmanager
def _shared_cache_root(cache: TraceCache):
    """The on-disk root worker processes share.

    A memory-only cache gets an ephemeral temp directory.  Its removal
    is both in the ``finally`` (covers exceptions and
    ``KeyboardInterrupt``) *and* registered with :mod:`atexit` (covers
    ``sys.exit`` / interpreter teardown while the pool is mid-flight),
    so interrupted grids do not strand temp directories.
    """
    if cache.root is not None:
        yield str(cache.root)
        return
    tmp = tempfile.mkdtemp(prefix=EPHEMERAL_CACHE_PREFIX)

    def _cleanup(path: str = tmp) -> None:
        shutil.rmtree(path, ignore_errors=True)

    atexit.register(_cleanup)
    try:
        yield tmp
    finally:
        _cleanup()
        atexit.unregister(_cleanup)


@dataclass
class _Cell:
    """Supervisor-side state of one grid cell."""

    index: int
    spec: RunSpec
    attempts: int = 0  # completed (failed) attempts so far
    not_before: float = 0.0  # monotonic instant the next attempt may start
    started: float = 0.0  # monotonic submit instant of the attempt in flight
    deadline: float | None = None
    key: str = field(default="")

    def __post_init__(self) -> None:
        self.key = self.spec.key()


class _Supervisor:
    """Shared accounting for the serial and parallel execution paths."""

    def __init__(
        self,
        specs: Sequence[RunSpec],
        policy: RetryPolicy,
        store: OutcomeStore | None,
        journal: GridJournal | None,
        resume: bool,
        grid_tracer=None,
    ) -> None:
        self.specs = specs
        self.policy = policy
        self.store = store
        self.journal = journal
        self.resume = resume
        self.tracer = grid_tracer
        self.results: list = [None] * len(specs)
        self.stats = {
            "attempts": 0,
            "retried": 0,
            "quarantined": 0,
            "timeouts": 0,
            "crashes": 0,
            "errors": 0,
            "pool_breaks": 0,
        }
        self._store_before = store.stats() if store is not None else None
        self._t0 = time.monotonic()

    def _now_ns(self) -> float:
        return (time.monotonic() - self._t0) * 1e9

    # -- store / resume pre-pass ------------------------------------

    def prefill(self) -> list[_Cell]:
        """Satisfy cells from the journal + outcome store; return the rest."""
        pending: list[_Cell] = []
        for i, spec in enumerate(self.specs):
            if self.store is not None:
                resumed = (
                    self.resume
                    and self.journal is not None
                    and self.journal.finished(i, spec)
                )
                outcome = self.store.get(spec)
                if outcome is not None:
                    self.results[i] = outcome
                    if self.tracer is not None:
                        self.tracer.outcome_cache("hit", spec.key(), self._now_ns())
                    if self.journal is not None and not resumed:
                        self.journal.record_cached(i, spec)
                    continue
                if self.tracer is not None:
                    self.tracer.outcome_cache("miss", spec.key(), self._now_ns())
            pending.append(_Cell(index=i, spec=spec))
        return pending

    # -- per-cell transitions ---------------------------------------

    def succeed(self, cell: _Cell, outcome: RunOutcome) -> None:
        self.stats["attempts"] += 1
        outcome.attempts = cell.attempts + 1
        if self.store is not None:
            self.store.put(outcome)
        if self.journal is not None:
            self.journal.record_finish(cell.index, cell.spec)
        self.results[cell.index] = outcome

    def fail(
        self,
        cell: _Cell,
        kind: str,
        error_type: str,
        message: str,
        duration_s: float,
        worker_pid: int | None = None,
    ) -> bool:
        """Charge a failed attempt; returns True when the cell may retry."""
        cell.attempts += 1
        self.stats["attempts"] += 1
        self.stats[
            {"timeout": "timeouts", "crash": "crashes"}.get(kind, "errors")
        ] += 1
        if self.journal is not None:
            self.journal.record_fail(
                cell.index, cell.spec, cell.attempts, kind, error_type, message
            )
        if cell.attempts < self.policy.max_attempts:
            self.stats["retried"] += 1
            if self.tracer is not None:
                self.tracer.cell_retried(
                    cell.index, cell.key, cell.attempts, kind, error_type,
                    self._now_ns(),
                )
            return True
        self.stats["quarantined"] += 1
        if self.journal is not None:
            self.journal.record_quarantine(cell.index, cell.spec, cell.attempts)
        if self.tracer is not None:
            self.tracer.cell_quarantined(
                cell.index, cell.key, cell.attempts, kind, error_type,
                self._now_ns(),
            )
        self.results[cell.index] = CellFailure(
            spec=cell.spec,
            index=cell.index,
            error_type=error_type,
            message=message,
            attempts=cell.attempts,
            duration_s=duration_s,
            kind=kind,
            worker_pid=worker_pid,
            quarantined=True,
        )
        return False

    # -- roll-up ----------------------------------------------------

    def grid_outcome(self) -> GridOutcome:
        if self.store is not None and self._store_before is not None:
            after = self.store.stats()
            cache = {k: after[k] - self._store_before[k] for k in after}
        else:
            cache = {"hits": 0, "misses": 0, "corrupt": 0}
        return GridOutcome(
            cells=list(self.results),
            retry_stats=dict(self.stats),
            outcome_cache=cache,
            journal_path=(
                str(self.journal.path) if self.journal is not None else None
            ),
        )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully stop a pool: hung or orphaned workers are killed.

    ``ProcessPoolExecutor`` has no public per-worker kill, so this
    reaches for the (stable-across-CPython) ``_processes`` map; a
    hung worker ignores graceful shutdown by definition.
    """
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except Exception:  # pragma: no cover - best effort
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - best effort
        pass


def _run_serial(
    sup: _Supervisor,
    pending: list[_Cell],
    cache: TraceCache,
    tracer_factory,
    labels,
) -> None:
    """In-process execution with retry/journal/store (no preemption:
    per-attempt timeouts require worker processes)."""
    for cell in pending:
        while True:
            tracer = None
            if tracer_factory is not None:
                tracer = tracer_factory(
                    labels[cell.index] if labels else str(cell.index)
                )
            if sup.journal is not None:
                sup.journal.record_start(cell.index, cell.spec, cell.attempts + 1)
            start = time.monotonic()
            try:
                outcome = RunContext(cell.spec, cache, tracer=tracer).execute()
            except Exception as exc:
                retry = sup.fail(
                    cell,
                    kind="error",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    duration_s=time.monotonic() - start,
                    worker_pid=os.getpid(),
                )
                if not retry:
                    break
                time.sleep(sup.policy.backoff(cell.key, cell.attempts))
                continue
            sup.succeed(cell, outcome)
            break


def _run_parallel(
    sup: _Supervisor, pending: list[_Cell], jobs: int, cache_root: str | None
) -> None:
    """The supervised pool: per-cell futures, hung-worker replacement.

    Crash attribution: when a worker process dies, *every* in-flight
    future breaks with it and ``ProcessPoolExecutor`` cannot say whose
    cell killed the worker.  Charging everyone would let one permanent
    crasher quarantine innocent neighbours, so an ambiguous pool break
    charges nobody -- the broken cells become *suspects*, re-run one at
    a time so the next crash is unambiguously attributable.  Timeouts
    are always per-cell (each has its own deadline), so only overdue
    cells are charged and the rest requeue uncharged.
    """
    workers = min(jobs, len(pending))
    policy = sup.policy
    ready: deque[_Cell] = deque(pending)
    waiting: list[_Cell] = []
    suspects: deque[_Cell] = deque()
    inflight: dict = {}
    pool = ProcessPoolExecutor(max_workers=workers)

    def _submit(cell: _Cell) -> None:
        now = time.monotonic()
        cell.started = now
        cell.deadline = (
            now + policy.timeout_s if policy.timeout_s is not None else None
        )
        if sup.journal is not None:
            sup.journal.record_start(cell.index, cell.spec, cell.attempts + 1)
        inflight[pool.submit(_execute_one, (cell.spec, cache_root))] = cell

    def _after_failure(cell: _Cell, retry: bool, kind: str, now: float) -> None:
        if retry:
            cell.not_before = now + policy.backoff(cell.key, cell.attempts)
            # A charged crash retries solo: if it crashes again the
            # attribution stays unambiguous.
            (suspects if kind == "crash" else waiting).append(cell)

    try:
        while ready or waiting or suspects or inflight:
            now = time.monotonic()
            for cell in [c for c in waiting if c.not_before <= now]:
                waiting.remove(cell)
                ready.append(cell)
            if suspects:
                # Suspect mode: exactly one future in flight at a time.
                if not inflight:
                    cell = suspects[0]
                    if cell.not_before <= now:
                        suspects.popleft()
                        _submit(cell)
            else:
                # Cap in-flight futures at the worker count: a
                # submitted cell is actually *running*, so timeout
                # accounting charges cells that consumed an attempt.
                while ready and len(inflight) < workers:
                    _submit(ready.popleft())
            if not inflight:
                horizons = [c.not_before for c in waiting]
                horizons += [c.not_before for c in suspects]
                time.sleep(max(min(horizons) - time.monotonic(), 0.0) + 0.001)
                continue

            horizons = [c.deadline for c in inflight.values() if c.deadline is not None]
            horizons += [c.not_before for c in waiting]
            wait_s = (
                max(min(horizons) - time.monotonic(), 0.0) + 0.005
                if horizons
                else None
            )
            done, _ = _futures_wait(
                set(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
            )

            now = time.monotonic()
            pool_broken = False
            broken: list[_Cell] = []
            for fut in done:
                cell = inflight.pop(fut)
                duration = now - cell.started
                try:
                    outcome = fut.result()
                except BrokenExecutor:
                    # The worker process died (OOM kill, segfault,
                    # os._exit ...); guilt is resolved below once the
                    # full broken set is known.
                    pool_broken = True
                    broken.append(cell)
                except CellExecutionError as exc:
                    retry = sup.fail(
                        cell,
                        kind="error",
                        error_type=exc.error_type,
                        message=exc.message,
                        duration_s=duration,
                        worker_pid=exc.worker_pid,
                    )
                    _after_failure(cell, retry, "error", now)
                except Exception as exc:
                    retry = sup.fail(
                        cell,
                        kind="error",
                        error_type=type(exc).__name__,
                        message=str(exc),
                        duration_s=duration,
                    )
                    _after_failure(cell, retry, "error", now)
                else:
                    sup.succeed(cell, outcome)

            overdue = [
                (fut, cell)
                for fut, cell in inflight.items()
                if cell.deadline is not None and now >= cell.deadline
            ]
            if overdue:
                # Hung worker(s): the only portable preemption is
                # killing the pool, so every overdue cell is charged a
                # timeout and the pool is rebuilt below.
                pool_broken = True
                for fut, cell in overdue:
                    del inflight[fut]
                    retry = sup.fail(
                        cell,
                        kind="timeout",
                        error_type="CellTimeout",
                        message=(
                            f"attempt exceeded the {policy.timeout_s:g}s "
                            f"wall-clock budget"
                        ),
                        duration_s=now - cell.started,
                    )
                    _after_failure(cell, retry, "timeout", now)

            if pool_broken:
                sup.stats["pool_breaks"] += 1
                # Whatever is still in flight died with the pool too.
                broken += list(inflight.values())
                inflight.clear()
                if len(broken) == 1:
                    # Unambiguous: this cell's worker died on it.
                    cell = broken[0]
                    retry = sup.fail(
                        cell,
                        kind="crash",
                        error_type="WorkerCrash",
                        message="worker process died executing this cell",
                        duration_s=now - cell.started,
                    )
                    _after_failure(cell, retry, "crash", now)
                else:
                    # Ambiguous: charge nobody; re-run the broken set
                    # one cell at a time to localize the crasher.
                    suspects.extend(broken)
                _kill_pool(pool)
                pool = ProcessPoolExecutor(max_workers=workers)
    finally:
        if inflight:
            _kill_pool(pool)
        else:
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - best effort
                pass


def _resolve_journal(
    journal: str | Path | None, specs: Sequence[RunSpec]
) -> Path | None:
    """A journal file path; directories get a grid-keyed file inside."""
    if journal is None:
        return None
    path = Path(journal).expanduser()
    if path.is_dir() or (not path.suffix and not path.exists()):
        # Directory (possibly not yet created): derive a stable,
        # grid-addressed file name so repeated invocations of the same
        # grid find their journal.
        return path / f"journal-{grid_key(specs)}.jsonl"
    return path


def execute_grid(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    trace_cache: TraceCache | str | Path | None = None,
    tracer_factory: Callable[[str], object] | None = None,
    labels: Sequence[str] | None = None,
    *,
    strict: bool = True,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    outcome_store: OutcomeStore | str | Path | None = None,
    journal: str | Path | None = None,
    resume: bool = False,
    grid_tracer=None,
) -> list[RunOutcome] | GridOutcome:
    """Execute every spec; results are ordered exactly like ``specs``.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (the default) runs in-process.
    trace_cache:
        A :class:`TraceCache`, a cache directory, or ``None`` (use
        ``$REPRO_TRACE_CACHE`` if set).  Parallel runs need a shared
        *directory*; a memory-only cache is replaced by an ephemeral
        temp directory that is removed afterwards.
    tracer_factory:
        Optional ``label -> Tracer`` callable observing each run
        (labels come from ``labels`` or the spec index).  Tracers are
        in-process objects, so this requires ``jobs=1``.
    strict:
        With the default ``True``, returns ``list[RunOutcome]`` and
        raises :class:`GridExecutionError` (after the whole grid has
        drained) if any cell exhausted its retry budget.  With
        ``False``, returns a :class:`GridOutcome` whose cells are
        ``RunOutcome | CellFailure`` -- graceful partial-grid
        degradation.
    retry, timeout, retries:
        Resilience knobs.  Pass a full :class:`RetryPolicy` as
        ``retry``, or the common scalars: ``timeout`` (per-attempt
        wall-clock seconds, parallel mode only) and ``retries``
        (re-attempts after the first; ``retries=2`` means up to 3
        attempts).
    outcome_store:
        An :class:`OutcomeStore` (or its directory) consulted before
        and populated after every cell; completed specs are never
        re-simulated.  Defaults to a store colocated with the trace
        cache's disk root when journaling is on, else no store.
    journal:
        JSONL journal file (or a directory, which gets a grid-keyed
        file name) recording cell start/finish/fail/quarantine events.
    resume:
        Re-use a previous invocation's journal: cells it finished are
        reloaded from the outcome store, everything else (including
        quarantined cells) is re-run.  Requires ``journal`` and a
        disk-backed outcome store.
    """
    if labels is not None and len(labels) != len(specs):
        raise ValueError(f"{len(labels)} labels for {len(specs)} specs")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    if jobs > 1 and tracer_factory is not None:
        raise ValueError(
            "tracer_factory observes in-process state and requires jobs=1"
        )
    if retry is not None and (timeout is not None or retries is not None):
        raise ValueError("pass either retry= or timeout=/retries=, not both")
    if retries is not None and retries < 0:
        raise ValueError(f"retries must be >= 0: {retries}")
    if retry is None:
        retry = RetryPolicy(
            max_attempts=(retries + 1) if retries is not None else 3,
            timeout_s=timeout,
        )
    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")

    cache = _coerce_cache(trace_cache)
    store = _coerce_store(outcome_store)
    journal_path = _resolve_journal(journal, specs)
    if store is None and journal_path is not None:
        store = OutcomeStore.colocated(cache)
    if resume and (store is None or store.root is None):
        raise ValueError(
            "resume=True requires a disk-backed outcome store (pass "
            "outcome_store= or a trace cache directory to colocate with)"
        )

    grid_journal = (
        GridJournal(journal_path, specs, resume=resume)
        if journal_path is not None
        else None
    )
    sup = _Supervisor(specs, retry, store, grid_journal, resume, grid_tracer)
    try:
        pending = sup.prefill()
        if pending:
            if jobs == 1 or len(pending) <= 1:
                _run_serial(sup, pending, cache, tracer_factory, labels)
            else:
                with _shared_cache_root(cache) as root:
                    _run_parallel(sup, pending, jobs, root)
    finally:
        if grid_journal is not None:
            grid_journal.close()

    grid = sup.grid_outcome()
    if not strict:
        return grid
    if not grid.ok:
        raise GridExecutionError(grid)
    return grid.cells


def aggregate_cache_stats(outcomes: Sequence[RunOutcome]) -> dict[str, int]:
    """Sum the per-run trace-cache deltas of a grid.

    Accepts a sequence of outcomes or a :class:`GridOutcome` (failed
    cells contribute nothing).
    """
    if isinstance(outcomes, GridOutcome):
        outcomes = outcomes.outcomes()
    total = {"hits": 0, "misses": 0, "corrupt": 0}
    for o in outcomes:
        if isinstance(o, CellFailure):
            continue
        for k in total:
            total[k] += o.cache_stats.get(k, 0)
    return total


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep result."""

    label: str
    metrics: RunMetrics
    speedup: float


@dataclass
class SweepResult:
    """Labeled sweep points, each with its speedup over the baseline."""

    workload: str
    points: list[SweepPoint] = field(default_factory=list)

    def by_label(self) -> dict[str, SweepPoint]:
        return {p.label: p for p in self.points}

    def best(self) -> SweepPoint:
        """The maximum-speedup point; exact ties break by label.

        The stable lexicographic tie-break keeps the result independent
        of the insertion order of the labeled specs.
        """
        if not self.points:
            raise ValueError("empty sweep")
        top = max(p.speedup for p in self.points)
        return min(
            (p for p in self.points if p.speedup == top), key=lambda p: p.label
        )


@dataclass
class SweepRun:
    """A labeled grid plus its baseline.

    ``result`` is the :class:`SweepResult`; ``outcomes`` align with
    ``result.points``; ``baseline`` is the 1-GPU normalization run.
    ``failures`` holds the :class:`CellFailure` records of points that
    exhausted their retry budget in a non-strict sweep (such points are
    omitted from ``result``/``outcomes``).
    """

    result: SweepResult
    baseline: RunOutcome
    outcomes: list[RunOutcome] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)
    #: Outcome-store traffic for the whole sweep (zeros with no store).
    outcome_cache: dict = field(default_factory=dict)
    #: Executor retry/quarantine accounting for the whole sweep.
    retry_stats: dict = field(default_factory=dict)

    def cache_stats(self) -> dict[str, int]:
        """Aggregate trace-cache traffic, baseline included."""
        return aggregate_cache_stats([self.baseline, *self.outcomes])


def labeled_sweep(
    labeled_specs: Mapping[str, RunSpec],
    jobs: int = 1,
    trace_cache: TraceCache | str | Path | None = None,
    tracer_factory: Callable[[str], object] | None = None,
    baseline: RunSpec | None = None,
    **resilience,
) -> SweepRun:
    """Run labeled specs plus a single-GPU baseline; report speedups.

    The baseline defaults to the first spec's
    :meth:`~RunSpec.single_gpu_baseline`.  The baseline run is never
    traced: ``tracer_factory`` observes only the sweep points.

    Extra keyword arguments (``strict``, ``timeout``, ``retries``,
    ``retry``, ``outcome_store``, ``journal``, ``resume``) pass through
    to :func:`execute_grid`.  A failing baseline is always fatal --
    speedups cannot be normalized without it -- while with
    ``strict=False`` failing sweep points are reported in
    :attr:`SweepRun.failures` and omitted from the result table.
    """
    if not labeled_specs:
        raise ValueError("empty sweep: no specs given")
    labels = list(labeled_specs)
    specs = [labeled_specs[label] for label in labels]
    if baseline is None:
        baseline = specs[0].single_gpu_baseline()

    strict = resilience.pop("strict", True)
    if tracer_factory is None:
        grid = execute_grid(
            [baseline, *specs],
            jobs=jobs,
            trace_cache=trace_cache,
            strict=False,
            **resilience,
        )
        baseline_cell, point_cells = grid.cells[0], grid.cells[1:]
    else:
        # Traced sweeps are in-process; keep the baseline untraced.
        base_grid = execute_grid(
            [baseline], jobs=1, trace_cache=trace_cache, strict=False,
            **resilience,
        )
        point_grid = execute_grid(
            specs,
            jobs=jobs,
            trace_cache=trace_cache,
            tracer_factory=tracer_factory,
            labels=labels,
            strict=False,
            **resilience,
        )
        baseline_cell, point_cells = base_grid.cells[0], point_grid.cells
        grid = GridOutcome(
            cells=[baseline_cell, *point_cells],
            retry_stats={
                k: base_grid.retry_stats.get(k, 0) + point_grid.retry_stats.get(k, 0)
                for k in base_grid.retry_stats
            },
            outcome_cache={
                k: base_grid.outcome_cache.get(k, 0)
                + point_grid.outcome_cache.get(k, 0)
                for k in base_grid.outcome_cache
            },
            journal_path=point_grid.journal_path,
        )

    if isinstance(baseline_cell, CellFailure):
        raise GridExecutionError(grid)
    failures = [c for c in point_cells if isinstance(c, CellFailure)]
    if strict and failures:
        raise GridExecutionError(grid)

    baseline_outcome = baseline_cell
    t1 = baseline_outcome.metrics.total_time_ns
    result = SweepResult(workload=specs[0].workload)
    point_outcomes = []
    for label, cell in zip(labels, point_cells):
        if isinstance(cell, CellFailure):
            continue
        point_outcomes.append(cell)
        result.points.append(
            SweepPoint(
                label=label,
                metrics=cell.metrics,
                speedup=t1 / cell.metrics.total_time_ns,
            )
        )
    return SweepRun(
        result=result,
        baseline=baseline_outcome,
        outcomes=point_outcomes,
        failures=failures,
        outcome_cache=dict(grid.outcome_cache),
        retry_stats=dict(grid.retry_stats),
    )


def _sum_counters(a: Mapping[str, int], b: Mapping[str, int]) -> dict:
    """Key-wise sum of two counter dicts (union of keys)."""
    return {k: a.get(k, 0) + b.get(k, 0) for k in {*a, *b}}


def refine_top_k(
    sweep: SweepRun,
    labeled_specs: Mapping[str, RunSpec],
    k: int,
    jobs: int = 1,
    trace_cache: TraceCache | str | Path | None = None,
    **resilience,
) -> tuple[SweepRun, set[str]]:
    """Re-run a sweep's top-``k`` points (by speedup) at DES fidelity.

    The cheap-fidelity sweep ranks the design space; the winners are
    then confirmed at full fidelity: the top ``k`` labels and a fresh
    single-GPU baseline are re-executed with ``fidelity="des"`` and
    their rows substituted into the returned :class:`SweepRun` (same
    label order as the input sweep).  Refined points' speedups are
    normalized against the DES baseline; unrefined points keep their
    original (cheap-fidelity) numbers.

    Returns ``(merged sweep, refined labels)``.  ``k <= 0`` is a no-op.
    """
    if k <= 0 or not sweep.result.points:
        return sweep, set()
    ranked = sorted(
        sweep.result.points, key=lambda p: p.speedup, reverse=True
    )
    top = [p.label for p in ranked[:k]]
    des_specs = {
        label: labeled_specs[label].with_options(fidelity="des")
        for label in top
    }
    refined = labeled_sweep(
        des_specs,
        jobs=jobs,
        trace_cache=trace_cache,
        baseline=sweep.baseline.spec.with_options(fidelity="des"),
        **resilience,
    )
    refined_points = {p.label: p for p in refined.result.points}
    refined_outcomes = {o.spec.key(): o for o in refined.outcomes}
    merged = SweepResult(workload=sweep.result.workload)
    merged_outcomes: list[RunOutcome] = []
    for point, outcome in zip(sweep.result.points, sweep.outcomes):
        replacement = refined_points.get(point.label)
        if replacement is not None:
            merged.points.append(replacement)
            merged_outcomes.append(
                refined_outcomes.get(
                    des_specs[point.label].key(), outcome
                )
            )
        else:
            merged.points.append(point)
            merged_outcomes.append(outcome)
    return (
        SweepRun(
            result=merged,
            baseline=refined.baseline,
            outcomes=merged_outcomes,
            failures=[*sweep.failures, *refined.failures],
            outcome_cache=_sum_counters(sweep.outcome_cache, refined.outcome_cache),
            retry_stats=_sum_counters(sweep.retry_stats, refined.retry_stats),
        ),
        set(refined_points),
    )
