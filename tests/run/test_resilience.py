"""Supervised executor: retry/quarantine, durability, resume identity.

Covers the resilience layer end to end: the ``faulty`` fixture workload
injects real worker crashes (``os._exit``), hangs, and exceptions; the
tests assert the supervisor's accounting (attempts, retries,
quarantine, failure kinds), the strict/degraded contract, the
content-addressed :class:`OutcomeStore` (including corruption
recovery), the grid journal, and the headline property: a grid killed
at an arbitrary cell boundary and resumed from its journal produces
outcomes identical to an uninterrupted run.
"""

import atexit
import glob
import json
import os
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.run.executor as executor_module
from repro.faults.errors import DegradedRunError
from repro.run import (
    CellExecutionError,
    CellFailure,
    GridExecutionError,
    GridJournal,
    GridOutcome,
    OutcomeStore,
    RetryPolicy,
    RunContext,
    RunOutcome,
    RunSpec,
    aggregate_cache_stats,
    execute_grid,
    grid_key,
    labeled_sweep,
)

JACOBI = RunSpec(workload="jacobi", workload_params={"n": 64}, n_gpus=2,
                 iterations=1)
DIFFUSION = RunSpec(workload="diffusion", workload_params={"n": 48},
                    n_gpus=2, iterations=1)
GRID = [
    JACOBI.with_options(paradigm="p2p"),
    JACOBI.with_options(paradigm="finepack"),
    DIFFUSION.with_options(paradigm="p2p"),
    DIFFUSION.with_options(paradigm="finepack"),
]


def faulty_spec(mode="ok", budget=0, token_dir="", token="cell", **kw):
    """A tiny spec over the package-registered misbehaving workload."""
    params = {"n": 16, "mode": mode, "budget": budget,
              "token_dir": token_dir, "token": token, **kw}
    return RunSpec(workload="faulty", paradigm="p2p", n_gpus=2,
                   iterations=1, workload_params=params)


def essence(outcome: RunOutcome) -> bytes:
    """The substantive content of an outcome, as bytes: everything but
    the ``compare=False`` accounting fields.

    One pickle round trip canonicalizes internal object-identity
    sharing (a freshly simulated metrics object shares sub-objects a
    store round trip does not), so byte comparison reflects content,
    not allocation history.
    """
    payload = pickle.dumps(
        (outcome.spec, outcome.metrics, outcome.degraded, outcome.reasons)
    )
    return pickle.dumps(pickle.loads(payload))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy(timeout_s=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.1)

    def test_backoff_deterministic_and_capped(self):
        p = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                        backoff_max_s=0.3, jitter=0.5)
        assert p.backoff("k", 1) == p.backoff("k", 1)
        assert p.backoff("k", 1) != p.backoff("other", 1)
        # attempt 5 -> base 1.6 capped at 0.3, jitter adds <= 50%
        assert 0.3 <= p.backoff("k", 5) <= 0.45

    def test_no_jitter_is_exact(self):
        p = RetryPolicy(backoff_base_s=0.05, backoff_factor=2.0, jitter=0.0)
        assert p.backoff("k", 2) == pytest.approx(0.1)


class TestOutcomeStore:
    def test_round_trip_and_freshness(self, tmp_path):
        store = OutcomeStore(tmp_path)
        (outcome,) = execute_grid([JACOBI], jobs=1)
        store.put(outcome)
        a, b = store.get(JACOBI), store.get(JACOBI)
        assert a == outcome and a.cached and not outcome.cached
        assert a is not b and a.metrics is not b.metrics  # never aliased
        assert store.stats()["hits"] == 2

    def test_survives_process_boundary(self, tmp_path):
        store = OutcomeStore(tmp_path)
        (outcome,) = execute_grid([JACOBI], jobs=1)
        store.put(outcome)
        fresh = OutcomeStore(tmp_path)  # a different "process"
        assert fresh.get(JACOBI) == outcome
        assert JACOBI in fresh

    def test_corruption_detected_and_recovered(self, tmp_path):
        store = OutcomeStore(tmp_path)
        (outcome,) = execute_grid([JACOBI], jobs=1)
        key = store.put(outcome)
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:40] + b"XXXX")
        fresh = OutcomeStore(tmp_path)
        assert fresh.get(JACOBI) is None
        assert fresh.stats()["corrupt"] == 1
        assert not path.exists()  # dropped, not left to fail forever

    def test_memory_only_store(self):
        store = OutcomeStore()
        (outcome,) = execute_grid([JACOBI], jobs=1)
        store.put(outcome)
        assert store.path_for(JACOBI.key()) is None
        assert store.get(JACOBI) == outcome

    def test_cached_outcome_reports_zero_trace_traffic(self, tmp_path):
        store = OutcomeStore(tmp_path)
        (outcome,) = execute_grid([JACOBI], jobs=1)
        assert outcome.cache_stats["misses"] == 1
        store.put(outcome)
        served = store.get(JACOBI)
        assert served.cache_stats == {"hits": 0, "misses": 0, "corrupt": 0}


class TestGridJournal:
    def test_resume_rejects_different_grid(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with GridJournal(path, GRID) as j:
            j.record_finish(0, GRID[0])
        with pytest.raises(ValueError, match="different spec grid"):
            GridJournal(path, list(reversed(GRID)), resume=True)

    def test_resume_rejects_wrong_cell_count(self, tmp_path):
        path = tmp_path / "j.jsonl"
        GridJournal(path, GRID).close()
        # Same key prefix is impossible with different cells, so fake a
        # same-key grid by duplicating: key changes -> different-grid
        # error; the cell-count check needs an equal-key scenario, which
        # grid_key makes unreachable -- assert the key guard fires first.
        with pytest.raises(ValueError):
            GridJournal(path, GRID + [GRID[0]], resume=True)

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with GridJournal(path, GRID) as j:
            j.record_finish(0, GRID[0])
        with open(path, "a") as fh:
            fh.write('{"e": "finish", "i": 1, "ke')  # killed mid-write
        j2 = GridJournal(path, GRID, resume=True)
        assert j2.finished(0, GRID[0])
        assert not j2.finished(1, GRID[1])
        j2.close()

    def test_quarantined_cells_not_done(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with GridJournal(path, GRID) as j:
            j.record_fail(2, GRID[2], 3, "error", "RuntimeError", "boom")
            j.record_quarantine(2, GRID[2], 3)
        j2 = GridJournal(path, GRID, resume=True)
        assert not j2.finished(2, GRID[2])  # re-run on resume
        j2.close()

    def test_grid_key_orders_matter(self):
        assert grid_key(GRID) != grid_key(list(reversed(GRID)))


class TestStrictContract:
    def test_strict_raises_after_drain(self):
        specs = [faulty_spec(), faulty_spec("raise", budget=1, token="s1")]
        with pytest.raises(GridExecutionError) as err:
            execute_grid(specs, retries=1)
        grid = err.value.grid
        assert isinstance(grid, GridOutcome)
        # The healthy cell still completed before the raise.
        assert len(grid.outcomes()) == 1
        (failure,) = grid.failures()
        assert failure.index == 1 and failure.attempts == 2

    def test_degraded_grid_returns_cell_failures(self):
        specs = [faulty_spec(), faulty_spec("raise", budget=1, token="d1")]
        grid = execute_grid(specs, retries=0, strict=False)
        assert not grid.ok
        ok, fail = grid.cells
        assert isinstance(ok, RunOutcome)
        assert isinstance(fail, CellFailure)
        assert fail.kind == "error" and fail.error_type == "RuntimeError"
        assert fail.quarantined and fail.attempts == 1
        assert "injected failure" in fail.message
        assert fail.as_dict()["key"] == specs[1].key()

    def test_non_strict_sweep_omits_failed_points(self):
        """``labeled_sweep(strict=False)`` -- what ``repro compare
        --no-strict`` runs -- drops a quarantined point from the table
        and reports it; the strict sweep raises instead."""
        labeled = {
            "ok": faulty_spec(),  # first: the baseline derives from it
            "bad": faulty_spec("raise", budget=1, token="ls1"),
        }
        run = labeled_sweep(labeled, retries=0, strict=False)
        assert [p.label for p in run.result.points] == ["ok"]
        assert [o.spec for o in run.outcomes] == [labeled["ok"]]
        (failure,) = run.failures
        assert failure.kind == "error" and failure.spec == labeled["bad"]
        with pytest.raises(GridExecutionError):
            labeled_sweep(labeled, retries=0, strict=True)

    def test_retry_recovers_transient_failure(self, tmp_path):
        spec = faulty_spec("raise", budget=1, token_dir=str(tmp_path),
                           token="t1")
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0)
        grid = execute_grid([spec], retry=retry, strict=False)
        assert grid.ok
        (outcome,) = grid.cells
        assert outcome.attempts == 2
        assert grid.retry_stats == {
            "attempts": 2, "retried": 1, "quarantined": 0,
            "timeouts": 0, "crashes": 0, "errors": 1, "pool_breaks": 0,
        }

    def test_conflicting_retry_arguments_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            execute_grid([JACOBI], retry=RetryPolicy(), retries=2)

    def test_resume_requires_journal_and_disk_store(self, tmp_path):
        with pytest.raises(ValueError, match="journal"):
            execute_grid([JACOBI], resume=True)
        with pytest.raises(ValueError, match="disk-backed"):
            execute_grid([JACOBI], resume=True, journal=tmp_path / "j.jsonl")


class TestHealthyGrid:
    def test_no_retries_or_quarantines(self, tmp_path):
        """Healthy cells charge no failed attempt on any path: serial,
        the process pool on a warm trace cache, or the outcome store."""
        store = OutcomeStore(tmp_path / "outcomes")
        grids = [
            execute_grid(GRID, jobs=1, trace_cache=tmp_path, strict=False),
            execute_grid(GRID, jobs=2, trace_cache=tmp_path,
                         outcome_store=store, strict=False),
            execute_grid(GRID, jobs=1, trace_cache=tmp_path,
                         outcome_store=store, strict=False),
        ]
        for grid in grids:
            assert grid.ok
            assert grid.retry_stats["retried"] == 0
            assert grid.retry_stats["quarantined"] == 0
        assert [g.retry_stats["attempts"] for g in grids] == [len(GRID)] * 2 + [0]


class TestWorkerFailures:
    """Real subprocess crashes and hangs through the supervised pool."""

    def test_worker_crash_is_survived_and_counted(self, tmp_path):
        specs = [
            faulty_spec(),
            faulty_spec("crash", budget=1, token_dir=str(tmp_path),
                        token="c1"),
        ]
        grid = execute_grid(specs, jobs=2, retries=2, strict=False)
        assert grid.ok  # the crash was transient: retry recovered it
        assert grid.retry_stats["pool_breaks"] >= 1
        assert all(isinstance(c, RunOutcome) for c in grid.cells)

    def test_permanent_crash_quarantines(self):
        specs = [faulty_spec(), faulty_spec("crash", budget=1, token="c2")]
        grid = execute_grid(specs, jobs=2, retries=1, strict=False)
        failures = grid.failures()
        assert len(failures) == 1
        assert failures[0].kind == "crash"
        assert failures[0].attempts == 2
        assert grid.retry_stats["quarantined"] == 1
        # The healthy cell survived the pool being broken around it.
        assert isinstance(grid.cells[0], RunOutcome)

    def test_hung_worker_detected_and_replaced(self, tmp_path):
        specs = [
            faulty_spec(),
            faulty_spec("hang", budget=1, token_dir=str(tmp_path),
                        token="h1", hang_s=60.0),
        ]
        grid = execute_grid(specs, jobs=2, timeout=3.0, retries=1,
                            strict=False)
        assert grid.ok  # killed once, retried, succeeded
        assert grid.retry_stats["timeouts"] == 1

    def test_worker_pid_recorded(self):
        grid = execute_grid(GRID[:2], jobs=2, strict=False)
        pids = {c.worker_pid for c in grid.cells}
        assert all(isinstance(p, int) for p in pids)
        assert os.getpid() not in pids


def sibling_grid(mode, token_dir, **kw):
    """Three cells of one ``faulty`` trace whose first generation
    misbehaves once."""
    spec = faulty_spec(mode, budget=1, token_dir=str(token_dir),
                       token="shared", **kw)
    return [spec.with_options(paradigm=p) for p in ("p2p", "finepack", "dma")]


class TestTraceAwareDispatch:
    """The pool generates each trace once: a cell waits while a sibling
    generating its trace is in flight, every exit of that sibling
    releases it, and a trace whose generation failed is not held for."""

    def test_one_generation_per_trace(self, tmp_path):
        specs = sibling_grid("hang", tmp_path / "tokens", hang_s=0.3)
        grid = execute_grid(specs, jobs=2, trace_cache=tmp_path / "cache",
                            strict=False)
        assert grid.ok
        assert aggregate_cache_stats(grid)["misses"] == 1
        assert grid.cells == execute_grid(specs, jobs=1)

    @pytest.mark.parametrize(
        "mode, knobs, counter",
        [
            ("raise", {}, "errors"),
            ("crash", {}, "crashes"),
            ("hang", {"hang_s": 60.0}, "timeouts"),
        ],
    )
    def test_failed_generation_releases_siblings(self, tmp_path, mode, knobs,
                                                 counter):
        specs = sibling_grid(mode, tmp_path / "tokens", **knobs)
        grid = execute_grid(specs, jobs=2, trace_cache=tmp_path / "cache",
                            timeout=3.0, strict=False)
        assert grid.ok
        assert all(isinstance(c, RunOutcome) for c in grid.cells)
        assert grid.retry_stats[counter] == 1

    def test_failing_trace_runs_siblings_side_by_side(self, tmp_path):
        # No token_dir: every generation attempt hangs.  After the first
        # timeout the other two cells start together and die in one
        # pool kill; holding them would cost one pool kill per cell.
        spec = faulty_spec("hang", budget=1, hang_s=60.0)
        specs = [spec.with_options(paradigm=p) for p in ("p2p", "finepack", "dma")]
        grid = execute_grid(specs, jobs=2, trace_cache=tmp_path / "cache",
                            timeout=0.5, retries=0, strict=False)
        assert not any(isinstance(c, RunOutcome) for c in grid.cells)
        assert grid.retry_stats["quarantined"] == 3
        assert grid.retry_stats["pool_breaks"] == 2

    def test_distinct_traces_start_in_spec_order(self, tmp_path):
        specs = [faulty_spec(token=f"t{i}") for i in range(5)]
        journal = tmp_path / "grid.jsonl"
        grid = execute_grid(specs, jobs=2, trace_cache=tmp_path / "cache",
                            journal=journal, strict=False)
        assert grid.ok
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        starts = [e["i"] for e in events if e.get("e") == "start"]
        assert starts == list(range(len(specs)))


class TestDurability:
    def test_warm_store_skips_resimulation(self, tmp_path):
        store = OutcomeStore(tmp_path / "outcomes")
        cold = execute_grid(GRID, jobs=1, outcome_store=store, strict=False)
        assert cold.outcome_cache == {"hits": 0, "misses": 4, "corrupt": 0}
        warm = execute_grid(GRID, jobs=1, outcome_store=store, strict=False)
        # The acceptance bar: >= 95% hits, nothing re-simulated.
        assert warm.outcome_cache["hits"] == len(GRID)
        assert warm.outcome_cache["misses"] == 0
        assert warm.retry_stats["attempts"] == 0
        assert all(c.cached for c in warm.cells)
        assert [essence(c) for c in warm.cells] == [
            essence(c) for c in cold.cells
        ]

    def test_warm_store_across_processes(self, tmp_path):
        store_dir = tmp_path / "outcomes"
        execute_grid(GRID, jobs=2, outcome_store=store_dir, strict=False)
        warm = execute_grid(GRID, jobs=2, outcome_store=store_dir,
                            strict=False)
        assert warm.outcome_cache["hits"] == len(GRID)

    def test_journal_colocates_store_with_trace_cache(self, tmp_path):
        grid = execute_grid(GRID, jobs=1, trace_cache=tmp_path,
                            journal=tmp_path, strict=False)
        assert grid.journal_path is not None
        assert Path(grid.journal_path).exists()
        assert list((tmp_path / "outcomes").glob("outcome-*.pkl"))

    def test_resume_finishes_interrupted_grid(self, tmp_path):
        """Kill serial execution at a cell boundary; resume completes
        the rest and the combined outcomes match an uninterrupted run."""
        journal = tmp_path / "grid.jsonl"
        store = OutcomeStore(tmp_path / "outcomes")
        interrupt_after(2, GRID, journal, store)
        resumed = execute_grid(GRID, jobs=1, outcome_store=store,
                               journal=journal, resume=True, strict=False)
        uninterrupted = execute_grid(GRID, jobs=1)
        assert [essence(c) for c in resumed.cells] == [
            essence(o) for o in uninterrupted
        ]
        assert [c.cached for c in resumed.cells] == [True, True, False, False]


def interrupt_after(n_cells: int, specs, journal, store) -> None:
    """Run a journaled serial grid, raising KeyboardInterrupt at the
    ``n_cells``-th cell boundary -- a faithful mid-sweep kill."""
    real = executor_module.RunContext
    remaining = [n_cells]

    class Interrupting(real):
        def execute(self):
            if remaining[0] == 0:
                raise KeyboardInterrupt
            remaining[0] -= 1
            return super().execute()

    executor_module.RunContext = Interrupting
    try:
        if n_cells >= len(specs):
            execute_grid(specs, jobs=1, outcome_store=store, journal=journal,
                         strict=False)
        else:
            with pytest.raises(KeyboardInterrupt):
                execute_grid(specs, jobs=1, outcome_store=store,
                             journal=journal, strict=False)
    finally:
        executor_module.RunContext = real


class TestResumeDeterminism:
    """The headline property (ISSUE satellite): killing a grid at *any*
    cell boundary and resuming yields outcomes identical to an
    uninterrupted serial run."""

    _reference = None

    @classmethod
    def reference(cls):
        if cls._reference is None:
            cls._reference = [
                essence(o) for o in execute_grid(GRID, jobs=1)
            ]
        return cls._reference

    @given(kill_at=st.integers(min_value=0, max_value=len(GRID)))
    @settings(max_examples=10, deadline=None)
    def test_resume_is_byte_identical(self, kill_at):
        tmp = Path(tempfile.mkdtemp(prefix="repro-resume-test-"))
        try:
            journal = tmp / "grid.jsonl"
            store = OutcomeStore(tmp / "outcomes")
            interrupt_after(kill_at, GRID, journal, store)
            resumed = execute_grid(GRID, jobs=1, outcome_store=store,
                                   journal=journal, resume=True,
                                   strict=False)
            assert grid_ok_bytes(resumed) == self.reference()
            cached = [c.cached for c in resumed.cells]
            assert cached == [i < kill_at for i in range(len(GRID))]
        finally:
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)


def grid_ok_bytes(grid: GridOutcome) -> list[bytes]:
    assert grid.ok
    return [essence(c) for c in grid.cells]


class TestExceptionFidelity:
    """Satellite: exceptions must cross the worker boundary intact."""

    def degraded_error(self):
        from repro.sim.metrics import RunMetrics

        metrics = RunMetrics(workload="jacobi", paradigm="p2p", n_gpus=2)
        return DegradedRunError(
            "fabric degraded past completion",
            metrics=metrics,
            reasons=("gpu0->gpu1 unreachable", "gpu2->gpu3 unreachable"),
        )

    def test_degraded_run_error_round_trip(self):
        err = self.degraded_error()
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, DegradedRunError)
        assert str(back) == str(err)
        assert back.reasons == err.reasons
        assert back.metrics == err.metrics

    def test_degraded_run_error_repeated_round_trip(self):
        """Re-pickling must not re-append the reasons detail."""
        err = self.degraded_error()
        twice = pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(err))))
        assert str(twice) == str(err)
        assert str(twice).count("unreachable") == 2

    def test_real_degraded_run_crosses_worker_boundary(self):
        from repro.faults import load_scenario

        schedule = load_scenario("partition")
        spec = RunSpec(
            workload="jacobi", paradigm="p2p", n_gpus=2,
            scenario=schedule.to_json(indent=None), intensity=1.0,
            topology=schedule.topology or "single_switch",
            with_credits=schedule.with_credits,
        )
        serial = RunContext(spec).execute()
        assert serial.degraded
        grid = execute_grid([spec, spec.with_options(paradigm="finepack")],
                            jobs=2, strict=False)
        assert grid.ok
        parallel = grid.cells[0]
        assert parallel.degraded
        assert parallel.reasons == serial.reasons
        assert parallel.metrics == serial.metrics

    def test_cell_execution_error_round_trip(self):
        err = CellExecutionError("ValueError", "bad input", 4321, "tb text")
        back = pickle.loads(pickle.dumps(err))
        assert back.error_type == "ValueError"
        assert back.message == "bad input"
        assert back.worker_pid == 4321
        assert back.traceback_text == "tb text"


class TestOutcomeEqualityContract:
    def test_accounting_fields_excluded_from_equality(self):
        (a,) = execute_grid([JACOBI], jobs=1)
        (b,) = execute_grid([JACOBI], jobs=1)
        b.worker_pid, b.attempts, b.cached = 999, 7, True
        b.cache_stats = {"hits": 42}
        assert a == b  # substance equal; accounting ignored


class TestEphemeralCacheCleanup:
    """Satellite: the mkdtemp shared cache must never be stranded."""

    @staticmethod
    def ephemeral_dirs():
        pattern = os.path.join(
            tempfile.gettempdir(),
            executor_module.EPHEMERAL_CACHE_PREFIX + "*",
        )
        return set(glob.glob(pattern))

    def test_happy_path_cleans_up(self):
        before = self.ephemeral_dirs()
        execute_grid(GRID[:2], jobs=2)
        assert self.ephemeral_dirs() <= before

    def test_interrupt_mid_pool_cleans_up(self):
        """A KeyboardInterrupt while the pool is executing must not
        strand the temp cache (the original leak)."""
        before = self.ephemeral_dirs()
        interrupted = executor_module._run_parallel

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        executor_module._run_parallel = boom
        try:
            with pytest.raises(KeyboardInterrupt):
                execute_grid(GRID[:2], jobs=2)
        finally:
            executor_module._run_parallel = interrupted
        assert self.ephemeral_dirs() <= before

    def test_cleanup_registered_with_atexit(self, monkeypatch):
        """Interpreter exit (sys.exit under SIGTERM handlers) runs
        atexit hooks; the ephemeral dir must be covered by one for the
        whole lifetime of the pool."""
        registered = []
        real_register = atexit.register

        def tracking_register(fn, *a, **kw):
            registered.append(fn)
            return real_register(fn, *a, **kw)

        monkeypatch.setattr(atexit, "register", tracking_register)
        from repro.run.cache import TraceCache

        with executor_module._shared_cache_root(TraceCache()) as root:
            assert os.path.isdir(root)
            assert len(registered) == 1
        assert not os.path.isdir(root)
        # And the hook was unregistered after normal cleanup: calling
        # it again is a no-op on an already-removed directory.
        registered[0]()

    def test_disk_cache_passes_through_untouched(self, tmp_path):
        from repro.run.cache import TraceCache

        cache = TraceCache(tmp_path)
        with executor_module._shared_cache_root(cache) as root:
            assert root == str(tmp_path)
        assert tmp_path.is_dir()
