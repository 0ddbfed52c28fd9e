"""Trace serialization.

Workload trace generation (running the real algorithm) dominates
experiment wall time, so traces can be captured once and replayed under
every paradigm/configuration.  Two on-disk formats over one column
schema (:data:`repro.trace.columns.COLUMNS`):

* :func:`save_trace` / :func:`load_trace` -- a single ``.npz`` archive
  (flat numpy arrays keyed by iteration/GPU plus a JSON metadata blob);
  compact and portable, the CLI's capture format.
* :class:`TraceDirWriter` (with :func:`save_trace_dir` /
  :func:`load_trace_dir` wrappers) -- a *columnar directory*: one flat
  ``.npy`` file per column (every phase concatenated, ``header.json``
  recording each phase's slice) loaded with ``np.load(..., mmap_mode="r")``.
  Compressed zip members cannot be memory-mapped, so this is the layout
  the :class:`~repro.run.cache.TraceCache` disk layer uses: parallel
  ``execute_grid`` workers replaying the same trace share the pages
  read-only instead of each materializing a copy.  The writer appends
  :class:`~repro.trace.columns.ColumnBlock` chunks incrementally
  (spill-while-generating), so a trace far larger than RAM is written
  in constant memory; writing a whole trace goes through the same code
  path, making streamed and whole-trace entries byte-identical.

Both loaders share one phase-assembly path
(:func:`repro.trace.columns.phase_from_columns`): phases are zero-copy
views over the loaded columns, validated once at write time rather than
re-scanned on every load.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from numpy.lib import format as _npy_format

from ..gpu.compute import KernelWork
from .columns import COLUMNS, ColumnBlock, phase_columns, phase_from_columns
from .stream import (
    DMATransfer,
    IterationTrace,
    KernelPhase,
    WorkloadTrace,
)

_FORMAT_VERSION = 2


# -- shared schema helpers ------------------------------------------


def _phase_header_entry(iteration: int, phase: KernelPhase) -> dict:
    """The JSON header record of one phase (sans column slices)."""
    return {
        "iteration": iteration,
        "gpu": phase.gpu,
        "flops": phase.work.flops,
        "dram_bytes": phase.work.dram_bytes,
        "precision": phase.work.precision,
        "dma": [
            [t.dst, t.dst_addr, t.nbytes, t.aggregated] for t in phase.dma
        ],
    }


def _phase_from_entry(ph: dict, columns: dict[str, np.ndarray]) -> KernelPhase:
    """One zero-copy :class:`KernelPhase` from a header entry."""
    return phase_from_columns(
        gpu=ph["gpu"],
        work=KernelWork(
            flops=ph["flops"],
            dram_bytes=ph["dram_bytes"],
            precision=ph["precision"],
        ),
        dma=[DMATransfer(*t) for t in ph["dma"]],
        columns=columns,
    )


def _check_version(header: dict, *, layout: str | None = None) -> None:
    if header.get("version") != _FORMAT_VERSION or (
        layout is not None and header.get("layout") != layout
    ):
        raise ValueError(
            f"unsupported trace format: version {header.get('version')}, "
            f"layout {header.get('layout')!r}"
        )


def _as_validated_int64(arr: np.ndarray) -> np.ndarray:
    """``int64`` view without copying already-int64 arrays (keeps
    memory-mapped slices zero-copy)."""
    if isinstance(arr, np.ndarray) and arr.dtype == np.int64:
        return arr
    return np.asarray(arr, dtype=np.int64)


def _assemble(header: dict, phases: list[KernelPhase]) -> WorkloadTrace:
    phases_by_iter: dict[int, list[KernelPhase]] = {}
    for ph, phase in zip(header["phases"], phases):
        phases_by_iter.setdefault(ph["iteration"], []).append(phase)
    iterations = [
        IterationTrace(sorted(phases_by_iter[i], key=lambda p: p.gpu))
        for i in sorted(phases_by_iter)
    ]
    return WorkloadTrace(
        name=header["name"],
        n_gpus=header["n_gpus"],
        iterations=iterations,
        metadata=header["metadata"],
    )


def _file_sha256(path: Path, chunk_bytes: int = 1 << 20) -> str:
    """Whole-file SHA-256 streamed in chunks (constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_bytes)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


# -- single-file .npz archive ---------------------------------------


def save_trace(trace: WorkloadTrace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` as a compressed npz archive."""
    arrays: dict[str, np.ndarray] = {}
    header = {
        "version": _FORMAT_VERSION,
        "name": trace.name,
        "n_gpus": trace.n_gpus,
        "n_iterations": trace.n_iterations,
        "metadata": trace.metadata,
        "phases": [],
    }
    for i, it in enumerate(trace.iterations):
        for p in it.phases:
            key = f"it{i}_gpu{p.gpu}"
            cols = phase_columns(p)
            for col in COLUMNS:
                arrays[f"{key}_{col}"] = cols[col]
            header["phases"].append({"key": key, **_phase_header_entry(i, p)})
    arrays["__header__"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(Path(path), **arrays)


def load_trace(path: str | Path) -> WorkloadTrace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(Path(path)) as data:
        header = json.loads(bytes(data["__header__"]).decode("utf-8"))
        _check_version(header)
        phases = [
            _phase_from_entry(
                ph,
                {
                    c: _as_validated_int64(data[f"{ph['key']}_{c}"])
                    for c in COLUMNS
                },
            )
            for ph in header["phases"]
        ]
    return _assemble(header, phases)


# -- columnar directory ---------------------------------------------


def _write_npy_header(fh, count: int) -> None:
    """(Re)write the npy v1 header for a flat int64 array of ``count``.

    The header numpy emits for a 1-D int64 array is a fixed 128 bytes
    for any realistic length (padded to 64-byte alignment), so it can
    be written with a placeholder count while data streams in and
    rewritten in place once the final count is known.
    """
    start = fh.tell()
    _npy_format.write_array_header_1_0(
        fh, {"descr": "<i8", "fortran_order": False, "shape": (count,)}
    )
    if fh.tell() - start != _NPY_HEADER_BYTES:  # pragma: no cover
        raise RuntimeError(
            f"npy header for count {count} was {fh.tell() - start} bytes, "
            f"expected {_NPY_HEADER_BYTES}"
        )


_NPY_HEADER_BYTES = 128


class TraceDirWriter:
    """Incremental columnar-directory writer (spill-while-generating).

    Opens one ``.npy`` stream per schema column with a placeholder
    header, appends each :class:`ColumnBlock`'s phases as they are
    produced, and on :meth:`finalize` rewrites the headers with the
    final counts, records streamed SHA-256 checksums, and writes
    ``header.json`` last -- so a directory with a readable header is
    complete (the cache layer additionally publishes whole directories
    atomically via ``os.replace``).

    Peak memory is one block, independent of trace length.
    """

    def __init__(self, path: str | Path, name: str, n_gpus: int) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.n_gpus = n_gpus
        self._files = {}
        for col in COLUMNS:
            fh = open(self.path / f"{col}.npy", "wb")
            _write_npy_header(fh, 0)
            self._files[col] = fh
        self._counts = dict.fromkeys(COLUMNS, 0)
        self._phase_entries: list[dict] = []
        self._n_iterations = 0
        self._finalized = False

    # -- intake -----------------------------------------------------

    def add_phase(self, iteration: int, phase: KernelPhase) -> None:
        """Append one phase's columns and index entry."""
        cols = phase_columns(phase)
        slices: dict[str, list[int]] = {}
        for col in COLUMNS:
            arr = np.ascontiguousarray(cols[col], dtype=np.int64)
            start = self._counts[col]
            self._files[col].write(arr)
            self._counts[col] = start + int(arr.size)
            slices[col] = [start, self._counts[col]]
        entry = _phase_header_entry(iteration, phase)
        entry["slices"] = slices
        self._phase_entries.append(entry)
        self._n_iterations = max(self._n_iterations, iteration + 1)

    def add_block(self, block: ColumnBlock) -> None:
        """Append every phase of a streamed :class:`ColumnBlock`."""
        for iteration, phase in block.kernel_phases():
            self.add_phase(iteration, phase)

    # -- completion -------------------------------------------------

    def finalize(self, metadata: dict) -> None:
        """Rewrite final array headers, checksum, and publish the header."""
        if self._finalized:
            raise RuntimeError("trace directory already finalized")
        self._finalized = True
        for col, fh in self._files.items():
            fh.flush()
            fh.seek(0)
            _write_npy_header(fh, self._counts[col])
            fh.close()
        # Integrity record: verified on load only when asked
        # (verify=True / $REPRO_TRACE_VERIFY through the cache) so the
        # default zero-copy mmap path stays untouched.
        checksums = {
            col: _file_sha256(self.path / f"{col}.npy") for col in COLUMNS
        }
        header = {
            "version": _FORMAT_VERSION,
            "layout": "columnar",
            "name": self.name,
            "n_gpus": self.n_gpus,
            "n_iterations": self._n_iterations,
            "metadata": metadata,
            "phases": self._phase_entries,
            "checksums": checksums,
        }
        (self.path / "header.json").write_text(json.dumps(header))

    def abort(self) -> None:
        """Close streams without publishing (caller removes the dir)."""
        if not self._finalized:
            self._finalized = True
            for fh in self._files.values():
                fh.close()

    def __enter__(self) -> "TraceDirWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()


def save_trace_dir(trace: WorkloadTrace, path: str | Path) -> None:
    """Write ``trace`` as a columnar directory (see module docstring).

    A thin wrapper over :class:`TraceDirWriter` -- whole-trace saves
    and streamed spills share one code path, so their bytes match.
    """
    with TraceDirWriter(path, name=trace.name, n_gpus=trace.n_gpus) as writer:
        for i, it in enumerate(trace.iterations):
            for p in it.phases:
                writer.add_phase(i, p)
        writer.finalize(trace.metadata)


def load_trace_dir(
    path: str | Path, mmap: bool = True, verify: bool = False
) -> WorkloadTrace:
    """Read a columnar trace directory written by :class:`TraceDirWriter`.

    With ``mmap=True`` (the default) every column is memory-mapped
    read-only: phase arrays are zero-copy slices (plain ndarrays whose
    base is the memmap) backed by the page cache, shared across any
    number of reader processes.

    With ``verify=True`` every column file is checked against the
    SHA-256 recorded in the header before use; a mismatch raises
    ``ValueError`` (the cache layer treats that as corruption and
    regenerates).  Directories written before checksums existed verify
    trivially.
    """
    path = Path(path)
    header = json.loads((path / "header.json").read_text())
    _check_version(header, layout="columnar")
    if verify:
        for col, expected in (header.get("checksums") or {}).items():
            if _file_sha256(path / f"{col}.npy") != expected:
                raise ValueError(
                    f"trace column {col}.npy failed its integrity check "
                    f"in {path}"
                )
    mode = "r" if mmap else None
    # A plain-ndarray view of each memmap keeps its pages shared and
    # read-only, but lets phase slices skip np.memmap's Python-level
    # __getitem__/__array_finalize__ on every slice.
    columns = {
        col: _as_validated_int64(
            np.load(path / f"{col}.npy", mmap_mode=mode).view(np.ndarray)
        )
        for col in COLUMNS
    }
    phases = [
        _phase_from_entry(
            ph,
            {
                col: columns[col][ph["slices"][col][0] : ph["slices"][col][1]]
                for col in COLUMNS
            },
        )
        for ph in header["phases"]
    ]
    return _assemble(header, phases)
