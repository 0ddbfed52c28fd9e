"""Content-addressed workload-trace cache.

Trace generation (running the real algorithm) dominates sweep wall
time, and every cell of a sweep/chaos grid replays the *same* trace.
The cache keys a serialized :class:`~repro.trace.stream.WorkloadTrace`
by :meth:`RunSpec.trace_key` -- the hash of ``(workload, params,
n_gpus, iterations, seed)`` -- so identical traces are generated once
per machine instead of once per process per sweep.

Two storage layers:

* an in-process memory layer (always on), giving serial sweeps the
  same generate-once behavior the old hand-rolled code had;
* an optional on-disk layer (``root`` directory of columnar
  ``trace-<key>`` directories via :mod:`repro.trace.tracefile`),
  shared by worker processes and across invocations.  Entries are
  loaded with ``mmap_mode="r"`` by default, so parallel
  ``execute_grid`` workers replaying the same trace share its pages
  read-only instead of each materializing a private copy.  Writes are
  atomic (temp directory + ``os.replace``) so concurrent workers
  racing on the same key are safe; corrupted or truncated entries are
  deleted and regenerated, never fatal.

Cache traffic is counted in an :class:`~repro.obs.counters.CounterRegistry`
(``trace_cache.hits`` / ``.misses`` / ``.corrupt``), which the executor
aggregates into run outcomes -- the observable proof that a warm cache
skipped generation.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

from ..obs.counters import CounterRegistry
from ..perf import profiler as _prof
from ..trace.stream import WorkloadTrace
from ..trace.tracefile import (
    TraceDirWriter,
    load_trace_dir,
    save_trace_dir,
)

#: Environment variable naming a persistent default cache directory.
CACHE_ENV = "REPRO_TRACE_CACHE"

#: Set (to anything non-empty) to verify columnar entries against their
#: recorded SHA-256 checksums on every disk load.  Off by default: the
#: mmap fast path stays zero-copy, and atomic publishes already protect
#: against torn writes -- verification is for long-lived shared caches
#: on storage you do not fully trust.
VERIFY_ENV = "REPRO_TRACE_VERIFY"


class TraceCache:
    """Memory + optional-disk cache of generated workload traces.

    ``root=None`` gives a memory-only cache (one process, one
    invocation); a directory path adds the shared on-disk layer.
    ``mmap=False`` materializes disk loads instead of memory-mapping
    them (for callers that mutate trace arrays in place).
    ``verify=True`` (or ``$REPRO_TRACE_VERIFY``) checks columnar
    entries against their recorded checksums on load; mismatches count
    as corrupt and regenerate.

    ``stream`` controls spill-while-generating: with a disk root, cache
    misses stream the workload's column chunks straight into the entry
    directory and hand back the memory-mapped result, so peak memory is
    one chunk (``DEFAULT_CHUNK_OPS`` store-ops) instead of the whole
    trace.  On by default; ``stream=False`` materializes the whole
    trace first and writes the byte-identical entry (the reference the
    streaming memory tests compare against).  Memory-only caches have
    nowhere to spill and always materialize.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        mmap: bool = True,
        verify: bool | None = None,
        stream: bool = True,
    ) -> None:
        self.root = Path(root).expanduser() if root is not None else None
        self.mmap = mmap
        self.verify = (
            bool(os.environ.get(VERIFY_ENV)) if verify is None else verify
        )
        self.stream = stream
        self._memory: dict[str, WorkloadTrace] = {}
        self.counters = CounterRegistry()

    @classmethod
    def from_env(cls) -> "TraceCache":
        """A cache rooted at ``$REPRO_TRACE_CACHE`` (memory-only if unset)."""
        return cls(os.environ.get(CACHE_ENV) or None)

    # -- addressing -------------------------------------------------

    def path_for(self, trace_key: str) -> Path | None:
        """The columnar directory an entry lives in (``None`` memory-only)."""
        if self.root is None:
            return None
        return self.root / f"trace-{trace_key}"

    # -- the one entry point ----------------------------------------

    def get_or_generate(self, spec) -> WorkloadTrace:
        """The trace for ``spec``, from cache or freshly generated.

        A miss instantiates the spec's registered workload.  Every
        return path leaves the trace in the memory layer; fresh
        generations are also persisted to disk.
        """
        key = spec.trace_key()
        trace = self._memory.get(key)
        if trace is not None:
            self.counters.counter("trace_cache.hits").inc()
            return trace

        trace = self._load_disk(key)
        if trace is not None:
            self.counters.counter("trace_cache.hits").inc()
            self._memory[key] = trace
            return trace

        self.counters.counter("trace_cache.misses").inc()
        workload = spec.build_workload()
        path = self.path_for(key)
        prof = _prof.ACTIVE
        if prof is not None:
            prof.begin("trace_generation")
        try:
            if path is not None and self.stream:
                trace = self._generate_streamed(path, workload, spec)
            else:
                trace = workload.generate_trace(
                    n_gpus=spec.n_gpus,
                    iterations=spec.iterations,
                    seed=spec.seed,
                )
                if path is not None:
                    self._write_atomic(path, trace)
        finally:
            if prof is not None:
                prof.end()
        self._memory[key] = trace
        return trace

    def _load_disk(self, key: str) -> WorkloadTrace | None:
        path = self.path_for(key)
        if path is not None and path.is_dir():
            try:
                return load_trace_dir(path, mmap=self.mmap, verify=self.verify)
            except Exception:
                # Truncated/corrupted entry (e.g. a killed worker):
                # regenerate, never crash.
                self.counters.counter("trace_cache.corrupt").inc()
                shutil.rmtree(path, ignore_errors=True)
        return None

    def _generate_streamed(self, path: Path, workload, spec) -> WorkloadTrace:
        """Generate ``spec``'s trace, spilling chunks to disk as produced.

        The workload's :meth:`iter_columns` stream is appended block by
        block to a temp :class:`TraceDirWriter` and published with the
        same atomic ``os.replace`` as whole-trace writes; the caller
        gets the (memory-mapped by default) disk entry back.  Nothing
        ever holds more than one column chunk, so generating a trace
        ~100x larger than RAM works in constant memory.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=path.parent, prefix=path.name + ".tmp.")
        try:
            with TraceDirWriter(
                tmp, name=workload.name, n_gpus=spec.n_gpus
            ) as writer:
                gen = workload.iter_columns(
                    n_gpus=spec.n_gpus,
                    iterations=spec.iterations,
                    seed=spec.seed,
                )
                while True:
                    try:
                        block = next(gen)
                    except StopIteration as stop:
                        metadata = dict(stop.value or {})
                        break
                    writer.add_block(block)
                writer.finalize(metadata)
            try:
                os.replace(tmp, path)
            except OSError:
                # Lost the publish race; the winner's entry is
                # byte-identical (same spec, same writer path).
                pass
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return load_trace_dir(path, mmap=self.mmap, verify=self.verify)

    def _write_atomic(self, path: Path, trace: WorkloadTrace) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=path.parent, prefix=path.name + ".tmp.")
        try:
            save_trace_dir(trace, tmp)
            try:
                os.replace(tmp, path)
            except OSError:
                # Lost a race against a concurrent worker that already
                # published this key (non-empty target on some
                # platforms): their entry is equivalent, keep it.
                pass
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # -- introspection ----------------------------------------------

    def stats(self) -> dict[str, int]:
        """``{"hits": h, "misses": m, "corrupt": c}`` so far."""
        snap = self.counters.snapshot()
        return {
            "hits": int(snap.get("trace_cache.hits", 0)),
            "misses": int(snap.get("trace_cache.misses", 0)),
            "corrupt": int(snap.get("trace_cache.corrupt", 0)),
        }

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk files stay)."""
        self._memory.clear()
