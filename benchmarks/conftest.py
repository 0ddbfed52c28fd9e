"""Shared fixtures for the figure-reproduction benchmark harness.

The full-suite comparison (all 8 workloads x 6 paradigms + single-GPU
baselines) is computed once per session and shared by the Figure 9, 10
and 11 benches and the GPS comparison.  Each bench prints the paper-format table to stdout and
also writes it under ``benchmarks/results/`` so the numbers survive the
pytest run.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import FinePackConfig
from repro.interconnect.pcie import PCIE_GEN4, PCIeProtocol
from repro.run import RunSpec, SweepPoint, TraceCache, labeled_sweep
from repro.workloads import default_suite


@pytest.fixture
def protocol() -> PCIeProtocol:
    return PCIeProtocol(PCIE_GEN4)


@pytest.fixture
def config() -> FinePackConfig:
    return FinePackConfig()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)

ALL_PARADIGMS = ("p2p", "dma", "finepack", "wc", "gps", "infinite")

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def suite_results() -> dict[str, dict[str, SweepPoint]]:
    """The paper's core experiment over the whole application suite:
    ``{workload: {paradigm: SweepPoint}}``, each point holding the
    paradigm's metrics and its speedup over one GPU.

    Runs through the grid executor: ``REPRO_BENCH_JOBS`` (default 1)
    fans the per-workload paradigm grids over worker processes, and one
    shared in-process trace cache keeps each workload's trace generated
    exactly once.  Metrics are identical at any job count.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache = TraceCache(os.environ.get("REPRO_TRACE_CACHE") or None)
    results: dict[str, dict[str, SweepPoint]] = {}
    for workload in default_suite():
        base = RunSpec.for_workload(workload, n_gpus=4, iterations=3, seed=7)
        results[workload.name] = labeled_sweep(
            {p: base.with_options(paradigm=p) for p in ALL_PARADIGMS},
            jobs=jobs,
            trace_cache=cache,
        ).result.by_label()
    return results


@pytest.fixture(scope="session")
def emit():
    """Print a report table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print("\n" + text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
