"""Checks of the benchmark itself.  Run with ``pytest bench/``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench() -> dict:
    return run.load_benchmark()


def test_benchmark_json_limits(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["bench"]
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    entries = bench["workloads"] + bench["end_to_end"] + bench["per_layer"]
    names = [e["name"] for e in entries]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in e2e.values())
    assert all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [w["name"] for w in bench["workloads"]] == list(worker.GRIDS)


def test_every_layer_metric_names_what_it_moves(bench):
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert list(run.LAYER_MOVES) == [m["name"] for m in bench["per_layer"]]
    for name, moves in run.LAYER_MOVES.items():
        if name == "trace_overhead_frac":
            continue  # end-to-end runs are untraced: it moves none of them
        assert moves, name
        assert all(metric in e2e and w in workloads for metric, w in moves), name


@pytest.mark.parametrize("seed", [7, 11])
def test_grids(seed):
    sizes = {"des-hpc": 24, "des-collectives": 15, "analytical-dse": 546, "sweep-cold": 30}
    for name, grid in worker.GRIDS.items():
        labels = [label for label, _ in grid(seed)]
        assert len(labels) == sizes[name] and len(set(labels)) == len(labels)
        assert all(spec.seed == seed for _, spec in grid(seed))
    calibration = [label for label, _ in worker.analytical_dse(seed) if label.count("/") == 2]
    assert len(calibration) == 39


def test_goldens_equal_bench_core():
    goldens = run.load_goldens()
    cells = worker.reference_cells(run.GOLDEN_SEED)
    assert list(goldens) == [label for label, _ in cells]
    assert all(goldens[label]["spec_key"] == spec.key() for label, spec in cells)


def test_compare_verdicts(tmp_path):
    base = [10.0 + 0.01 * i for i in range(10)]
    verdict = compare.verdict
    assert verdict(base, [x * 0.8 for x in base], "lower", 0.1) == "improved"
    assert verdict(base, list(base), "lower", 0.1) == "unchanged"
    assert verdict(base, [x * 1.05 for x in base], "lower", 0.1) == "unchanged"
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.1) == "worse"
    assert verdict(base, [x * 1.2 for x in base], "higher", 0.1) == "improved"
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0, 7.0, 11.0, 10.0, 12.0]
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert verdict(noisy, [x - 10 for x in noisy], "lower", 0.1) == "improved"
    assert verdict(base, [x * 1.2 for x in base], "lower", None) == "worse"
    assert verdict([1.5] * 3, [1.5] * 3, "higher", 0.01, exact=True) == "unchanged"
    assert verdict([1.5] * 3, [1.5, 1.5, 1.5000001], "higher", 0.01, exact=True) == "improved"
    assert verdict([1.5] * 3, [1.4] * 3, "higher", 0.01, exact=True) == "worse"

    def results(values):
        runs = [
            {
                "workload": "des-hpc",
                "trace": 0,
                "failed": 0,
                "metrics": {
                    "wall_s": {"value": v, "unit": "s", "better": "lower", "bound": 0.1, "exact": False}
                },
            }
            for v in values
        ]
        path = tmp_path / f"r{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps({"runs": runs}))
        return path

    assert compare.compare(results(base), results(base)) == 0
    assert compare.compare(results(base), results([x * 1.2 for x in base])) == 1


def test_corrupted_golden_fails_a_cheap_cell():
    label, spec = next(c for c in worker.des_hpc(7) if c[0] == "jacobi/dma/4gpu")
    cache = worker.TraceCache()
    rec = worker.record(label, worker.RunContext(spec, cache).execute())
    predicted = worker.predict_metrics(spec, cache.get_or_generate(spec))
    check = {"predicted": {label: worker.summary(predicted)}}
    reps = [{"cells": [rec]}]
    goldens = run.load_goldens()
    assert run.failed_cells("des-hpc", 7, reps, check, goldens) == {}
    corrupt = {**goldens, label: {**goldens[label], "fp": "0" * 64}}
    assert run.failed_cells("des-hpc", 7, reps, check, corrupt) == {
        label: "result differs from the seed-7 golden"
    }
    # Goldens are for seed 7 only.
    assert run.failed_cells("des-hpc", 11, reps, check, corrupt) == {}


def _bench_copy(tmp_path: Path) -> Path:
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def _run(cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", "des-hpc", "--seed", "7"]
    cmd += ["--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_without_the_program(tmp_path):
    proc = _run(_bench_copy(tmp_path))
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_refuses_goldens_that_disagree_with_bench_core(tmp_path):
    root = _bench_copy(tmp_path)
    (root / "src").symlink_to(ROOT / "src")
    shutil.copy(ROOT / "BENCH_core.json", root)
    doc = json.loads((root / "bench" / "goldens.json").read_text())
    doc["cells"]["jacobi/dma/4gpu"]["fp"] = "0" * 64
    (root / "bench" / "goldens.json").write_text(json.dumps(doc))
    proc = _run(root)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
    assert "refusing goldens" in proc.stderr
