#!/usr/bin/env python3
"""The repository benchmark: four sweep workloads, end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--out RESULTS.json]

Untraced (``--trace 0``), one run of a workload is

* ``SETUPS`` set-up subprocesses, each importing ``repro`` and generating
  every trace of the workload into an empty on-disk trace cache;
  ``setup_s`` is their median time from spawn to ready;
* timed subprocesses, each running the grid once with a warm disk cache
  and cold in-process caches, like a new CLI invocation; at least
  ``MIN_REPS``, and more while ``--seconds`` allows; ``wall_s`` and
  ``peak_rss_mib`` are medians over them;
* one check subprocess computing reference outputs, off every clock.

Traced (``--trace 1``), one subprocess times each layer's public calls
from this directory's code and writes the spans as a Chrome trace; its
per-layer numbers are printed instead.

Every output is checked (see :func:`failed_cells`).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run is also appended to ``--out``,
which ``bench/compare.py`` reads.  Errors exit with status 2 and print
no result.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUPS = 3
#: One repetition's wall time swings by up to ~8% on a shared 2-core
#: host; the median of at least four damps that (see README.md).
MIN_REPS = 4
#: A run must end within 180 s; leave room for start-up and clean-up.
DEADLINE_S = 170.0
GOLDEN_SEED = 7

#: Simulated-time or model outputs: bit-equal for a seed on any host.
EXACT = frozenset(
    {"sim_finepack_vs_p2p", "sim_wire_ratio", "ana_wire_err_max", "ana_time_err_max"}
)
#: What a golden pins: the metrics fingerprint (every dataclass field)
#: and the derived totals the end-to-end metrics read.
GOLDEN_KEYS = ("fp", "time_ns", "wire", "payload", "useful")
#: Paradigms whose bytes the analytical tier predicts exactly.
EXACT_BYTES = ("p2p", "dma")
#: Paper Fig. 9 geomean speedups over one GPU: FinePack ~2.4, P2P ~0.8.
PAPER_FINEPACK_VS_P2P = "paper Fig. 9: ~2.4/0.8 (reference only; model unvalidated on hardware)"

DES = ("des-hpc", "des-collectives")


def _on(metric: str, *workloads: str) -> tuple[tuple[str, str], ...]:
    return tuple((metric, w) for w in workloads)


_GEN = _on("setup_s", *DES, "analytical-dse") + _on("wall_s", "sweep-cold")
_LOAD = _on("wall_s", *DES, "analytical-dse")
_SIM = _on("wall_s", *DES)
_ANA = _on("wall_s", "analytical-dse")
_POOL = _on("wall_s", "sweep-cold")

#: Which (end-to-end metric, workload) each per-layer metric should move.
#: trace_overhead_frac moves none: end-to-end runs are untraced.
LAYER_MOVES = {
    "run.cache.generate_s": _GEN,
    "run.cache.misses": _GEN,
    "trace.gen_ops_per_s": _GEN,
    "trace.disk_mib": _GEN,
    "run.cache.load_s": _LOAD,
    "run.cache.hits": _LOAD,
    "run.context.build_s": _on("wall_s", "des-collectives"),
    "sim.run_s": _SIM,
    "sim.ops_per_s": _SIM,
    "sim.cell_ms_p50": _SIM,
    "sim.cell_ms_max": _SIM,
    "sim.stage.packetizer_rwq_s": _on("wall_s", "des-hpc"),
    "sim.stage.link_serialization_s": _on("wall_s", "des-collectives"),
    "sim.stage.metrics_classify_s": _on("wall_s", "des-collectives"),
    "sim.stage.egress_s": _SIM,
    "sim.stage.ingress_drain_s": _SIM,
    "sim.stage.engine_dispatch_s": _SIM,
    "sim.unattributed_s": _SIM,
    "sim.messages": _on("sim_wire_ratio", *DES),
    "sim.stores_per_packet": _on("sim_wire_ratio", *DES),
    "sim.goodput": _on("sim_wire_ratio", *DES),
    "analytical.stats_s": _ANA,
    "analytical.predict_s": _ANA,
    "analytical.cell_ms_p50": _ANA,
    "analytical.cell_ms_p98": _ANA,
    "run.executor.overhead_s": _on("wall_s", "analytical-dse", "sweep-cold"),
    "run.executor.idle_frac": _POOL,
    "run.executor.attempts": _POOL,
    "run.executor.retried": _POOL,
    "run.outcomes.put_ms": _POOL,
    "run.outcomes.get_ms": _POOL,
    "run.outcomes.hits": _POOL,
    "run.outcomes.disk_mib": _POOL,
    "run.resume_s": _POOL,
    "unattributed_s": _on("wall_s", *DES, "analytical-dse", "sweep-cold"),
    "trace_overhead_frac": (),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# -- inputs --------------------------------------------------------------


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from None


def require_checkout() -> None:
    """The program is built from the checkout's own ``src/``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no src/repro under {ROOT}: not a checkout of the program")


def load_goldens() -> dict:
    """Seed-7 goldens, refused unless they agree with BENCH_core.json."""
    try:
        goldens = json.loads((BENCH / "goldens.json").read_text())["cells"]
        core = json.loads((ROOT / "BENCH_core.json").read_text())
        runs = [(r, 4) for r in core["runs"]["fast"]]
        runs += [(r, 16) for r in core["collectives"]["runs"]["fast"]]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the goldens or BENCH_core.json: {exc}") from None
    expected = {f"{r['workload']}/{r['paradigm']}/{n}gpu": r["fingerprint"] for r, n in runs}
    if expected.keys() != goldens.keys():
        raise BenchError("bench/goldens.json and BENCH_core.json cover different cells")
    differ = [k for k, fp in expected.items() if goldens[k]["fp"] != fp]
    if differ:
        raise BenchError(
            f"refusing goldens that differ from BENCH_core.json runs.fast: {differ}"
        )
    return goldens


# -- subprocesses --------------------------------------------------------


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _kill(proc: subprocess.Popen) -> None:
    """Stop the child and every worker it started, then reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def spawn(mode: str, workload: str, seed: int, cache: Path, deadline: float, **extra) -> dict:
    """Run one worker subprocess; returns its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", workload]
    cmd += ["--seed", str(seed), "--cache", str(cache)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    # The worker reports ready_s against this instant (CLOCK_MONOTONIC is
    # system-wide), so set-up time counts interpreter start-up too.
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError(f"{mode} subprocess of {workload} overran the run's time budget")
    except BaseException:
        _kill(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} subprocess of {workload} exited {proc.returncode}:\n{err[-3000:]}"
        )
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{mode} subprocess of {workload} printed no result") from None


# -- checks and end-to-end numbers -----------------------------------------


def des_reference(reps: list, check: dict) -> list[dict]:
    """The DES cells predictions are checked against: the grid's own, or
    for analytical-dse the check's DES of the 39 des-* cells."""
    if "des" in check:
        return check["des"]
    return [c for c in reps[0]["cells"] if c["fidelity"] == "des"]


def failed_cells(workload: str, seed: int, reps: list, check: dict, goldens: dict) -> dict:
    """``{cell label: reason}`` for every cell that fails a check.

    A cell fails if it raised or degraded; if a repetition (or, for
    sweep-cold, the resumed pass) produced a different result than the
    first; if it is a p2p/dma DES cell whose wire, payload or useful
    bytes differ from ``predict_metrics`` (exact for those paradigms);
    or, at seed 7, if its fingerprint or totals differ from the golden.
    analytical-dse's DES reference cells are labelled ``ref <label>``.
    """
    failed: dict[str, str] = {}

    def fail(label: str, reason: str) -> None:
        failed.setdefault(label, reason)

    first = {c["label"]: c for c in reps[0]["cells"]}
    for rep in reps:
        for c in rep["cells"]:
            if not c["ok"]:
                fail(c["label"], c["error"])
            elif c["fp"] != first[c["label"]].get("fp"):
                fail(c["label"], "result differs between repetitions")
        for c in rep.get("resume_cells", ()):
            if c.get("fp") != first[c["label"]].get("fp"):
                fail(c["label"], "resumed outcome differs from the cold outcome")

    reference = des_reference(reps, check)
    prefix = "ref " if "des" in check else ""
    for c in reference:
        label = prefix + c["label"]
        if not c["ok"]:
            fail(label, c["error"])
            continue
        predicted = check["predicted"][c["label"]]
        if c["paradigm"] in EXACT_BYTES and any(
            c[k] != predicted[k] for k in ("wire", "payload", "useful")
        ):
            fail(label, "DES bytes differ from predict_metrics")
        golden = goldens.get(c["label"]) if seed == GOLDEN_SEED else None
        if golden is not None and any(golden[k] != c[k] for k in GOLDEN_KEYS):
            fail(label, "result differs from the seed-7 golden")
    if prefix:
        des = {c["label"]: c for c in reference if c["ok"]}
        for c in reps[0]["cells"]:
            d = des.get(c["label"])
            if c["ok"] and d and c["paradigm"] in EXACT_BYTES and any(
                c[k] != d[k] for k in ("wire", "payload", "useful")
            ):
                fail(c["label"], "analytical bytes differ from the DES")
    return failed


def _geomean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def sim_ratios(cells: list[dict]) -> tuple[float, float]:
    """Geomeans over apps of p2p/finepack time and finepack/p2p wire bytes,
    over the cells at the default configuration."""
    by = {c["label"]: c for c in cells if c["ok"] and c["label"].count("/") == 2}
    speed, wire = [], []
    for label, fp in by.items():
        app, paradigm, shape = label.split("/")
        p2p = by.get(f"{app}/p2p/{shape}")
        if paradigm == "finepack" and p2p is not None:
            speed.append(p2p["time_ns"] / fp["time_ns"])
            wire.append(fp["wire"] / p2p["wire"])
    return _geomean(speed), _geomean(wire)


def ana_errors(des: list[dict], predicted: dict) -> tuple[float, float]:
    """Max relative wire-byte and total-time error of the predictions."""
    wire = time_ = 0.0
    for c in des:
        p = predicted.get(c["label"])
        if c["ok"] and p is not None:
            wire = max(wire, abs(p["wire"] - c["wire"]) / c["wire"])
            time_ = max(time_, abs(p["time_ns"] - c["time_ns"]) / c["time_ns"])
    return wire, time_


# -- one run -------------------------------------------------------------


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(workload: str, seed: int, seconds: int, deadline: float):
    """Set up, time and check one workload untraced.

    Returns ``({metric: samples}, timed results, check result, details)``.
    """
    work = _fresh(WORK / f"{workload}-seed{seed}-{os.getpid()}")
    try:
        setups = [
            spawn("setup", workload, seed, work / f"setup{i}", deadline)
            for i in range(SETUPS)
        ]
        for i in range(1, SETUPS):
            shutil.rmtree(work / f"setup{i}", ignore_errors=True)
        cache = work / "setup0"
        reps, took = [], []
        start = time.monotonic()
        while len(reps) < MIN_REPS or (
            time.monotonic() - start + statistics.median(took) <= seconds
        ):
            # Write back what earlier subprocesses wrote, so that no
            # repetition pays for flushing another's trace files.
            os.sync()
            t0 = time.monotonic()
            reps.append(spawn("timed", workload, seed, cache, deadline))
            took.append(time.monotonic() - t0)
        check = spawn("check", workload, seed, cache, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    speedup, wire_ratio = sim_ratios(reps[0]["cells"])
    wire_err, time_err = ana_errors(des_reference(reps, check), check["predicted"])
    samples = {
        "setup_s": [s["ready_s"] for s in setups],
        "wall_s": [r["wall_s"] for r in reps],
        "peak_rss_mib": [r["rss_mib"] for r in reps],
        "sim_finepack_vs_p2p": [speedup],
        "sim_wire_ratio": [wire_ratio],
        "ana_wire_err_max": [wire_err],
        "ana_time_err_max": [time_err],
    }
    details = {"timed_reps": len(reps)}
    if "resume_s" in reps[0]:
        details["resume_s"] = [r["resume_s"] for r in reps]
    return samples, reps, check, details


def measure_traced(workload: str, seed: int, deadline: float):
    """One traced subprocess and its check; returns like :func:`measure`."""
    work = _fresh(WORK / f"{workload}-seed{seed}-{os.getpid()}-traced")
    spans = WORK / f"trace-{workload}-seed{seed}.json"
    try:
        traced = spawn("traced", workload, seed, work, deadline, spans=spans)
        check = spawn("check", workload, seed, work / "grid", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples = {k: [v] for k, v in traced["layers"].items()}
    details = {k: traced[k] for k in ("traced_wall_s", "slowest_sim_cell", "spans")}
    return samples, [traced], check, details


def run_workload(workload: str, seed: int, seconds: int, trace: int, bench: dict, goldens: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        samples, reps, check, details = measure_traced(workload, seed, deadline)
        specs = {m["name"]: m for m in bench["per_layer"]}
    else:
        samples, reps, check, details = measure(workload, seed, seconds, deadline)
        specs = {m["name"]: m for m in bench["end_to_end"]}
    failed = failed_cells(workload, seed, reps, check, goldens)
    for label in reps[0].get("traced_mismatch", ()):
        failed.setdefault(label, "traced result differs from the untraced one")
    attempted = len(reps[0]["cells"]) + len(check.get("des", ()))
    metrics = {}
    for name, spec in specs.items():
        values = samples[name]
        q1, _, q3 = (
            statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1
            else [values[0]] * 3
        )
        metrics[name] = {
            "value": statistics.median(values),
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec.get("bound"),
            "exact": name in EXACT,
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "samples": values,
        }
    details["failed_frac"] = len(failed) / attempted
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "failed_cells": failed,
        "metrics": metrics,
        "details": details,
    }


# -- output --------------------------------------------------------------


def report(run: dict) -> None:
    d = run["details"]
    kind = "traced" if run["trace"] else f"{d['timed_reps']} timed repetitions"
    print(
        f"{run['workload']}  seed {run['seed']}  {kind}  "
        f"failed {run['failed']}/{run['attempted']} (failed_frac {d['failed_frac']:.4f})"
    )
    print(f"  {'metric':<32} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, m in run["metrics"].items():
        note = ""
        if m["exact"]:
            note = "  simulated, exact"
        if name == "sim_finepack_vs_p2p":
            note += f"; {PAPER_FINEPACK_VS_P2P}"
        print(
            f"  {name:<32} {m['unit']:<10} {m['value']:>12.6g} {m['q1']:>12.6g} "
            f"{m['q3']:>12.6g} {m['n']:>3}{note}"
        )
    for label, reason in run["failed_cells"].items():
        print(f"  FAILED {label}: {reason}")
    for key in ("resume_s", "slowest_sim_cell", "traced_wall_s", "spans"):
        if key in d:
            print(f"  {key}: {d[key]}")


def append_results(path: Path, runs: list[dict]) -> None:
    doc = {"runs": []}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["runs"].extend(runs)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    try:
        bench = load_benchmark()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*names, "all"], default="all")
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument(
        "--seconds",
        type=int,
        default=bench["run_seconds"],
        help="timed repetitions continue while they fit in this many seconds",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=WORK / "results.json")
    args = ap.parse_args(argv)

    try:
        require_checkout()
        goldens = load_goldens()
        runs = [
            run_workload(w, args.seed, args.seconds, args.trace, bench, goldens)
            for w in (names if args.workload == "all" else [args.workload])
        ]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for run in runs:
        report(run)
    append_results(args.out, runs)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in runs for k, m in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
