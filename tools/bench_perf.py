#!/usr/bin/env python
"""Perf-regression benchmark for the vectorized fast paths
(``make bench-perf``).

Two suites, each run twice -- once with every fast path enabled (the
default configuration) and once with the scalar reference paths -- on
shared pre-warmed trace caches:

* the **core** suite: the full 8-workload set under three paradigms at
  4 GPUs and 3 iterations on the default single-switch topology;
* the **collectives** suite: the five collective workloads under three
  paradigms on a 16-GPU fat tree (fanout 4) -- the hop-overlapping
  shape the event-ordered batch transport keeps on the fast path.

A third suite, **trace_stream**, measures memory instead of time: two
subprocesses generate the same ~13M-op CT trace through the trace
cache, one spilling column chunks as they are produced (streaming, the
default) and one materializing the whole trace first, and each reports
its peak RSS *above its own post-import baseline* (import residency is
page-cache-state noise).  The gate requires the streamed delta to be
at most ``--max-stream-rss-ratio`` (default 0.5) of the whole-trace
delta.

``BENCH_core.json`` records, per suite: per-run wall clock and
per-stage breakdowns (fast and scalar), the end-to-end speedup
``scalar_s / fast_s``, and a byte-identity verdict -- every run's
``RunMetrics`` fingerprint must match between modes, else the exit
status is non-zero.  An existing ``--out`` file is updated in place:
keys this script does not write (the ``analytical`` block of
``tools/calibrate_analytical.py``, a skipped suite) are kept.

Gates (all must pass for exit 0):

* absolute speedup floors: core >= ``--min-speedup`` (default 8.9x),
  collectives >= ``--min-collective-speedup`` (default 2.0x);
* ``--check BASELINE`` additionally compares against a committed
  ``BENCH_core.json`` and fails if a measured speedup drops below
  ``--threshold`` (default 0.75) times the baseline's.  The gate is a
  *ratio of ratios*, so it is machine-independent: absolute seconds
  differ across CI runners, but "how much faster is fast than scalar
  on the same box" should not.

Usage::

    python tools/bench_perf.py [--out BENCH_core.json]
                               [--check BENCH_core.json] [--threshold 0.75]
                               [--min-speedup 8.9] [--min-collective-speedup 2.0]
                               [--skip-collectives]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(_SRC))

from repro.perf.harness import profile_run  # noqa: E402
from repro.run import RunSpec, TraceCache  # noqa: E402

WORKLOADS = ("als", "ct", "diffusion", "eqwp", "hit", "jacobi", "pagerank", "sssp")
COLLECTIVES = ("allreduce_ring", "allreduce_tree", "allgather", "alltoall", "pipeline")
PARADIGMS = ("p2p", "dma", "finepack")

#: The core shape: the paper's 4-GPU single-switch testbed.
CORE_SUITE = {
    "n_gpus": 4,
    "iterations": 3,
    "topology": None,
    "topology_params": {},
}

#: The collectives-at-scale shape: hop-overlapping fat tree.
COLLECTIVE_SUITE = {
    "n_gpus": 16,
    "iterations": 2,
    "topology": "fat_tree",
    "topology_params": {"fanout": 4},
}


def build_core_suite() -> list[RunSpec]:
    return [
        RunSpec(workload=w, paradigm=p, **CORE_SUITE)
        for w in WORKLOADS
        for p in PARADIGMS
    ]


def build_collective_suite() -> list[RunSpec]:
    shape = COLLECTIVE_SUITE
    return [
        RunSpec(
            workload=w,
            paradigm=p,
            n_gpus=shape["n_gpus"],
            iterations=shape["iterations"],
            topology=shape["topology"],
            topology_params=shape["topology_params"],
        )
        for w in COLLECTIVES
        for p in PARADIGMS
    ]


def run_suite(specs, cache, scalar: bool) -> tuple[float, list[dict]]:
    start = time.perf_counter()
    rows = []
    for spec in specs:
        result = profile_run(spec, scalar=scalar, trace_cache=cache)
        rows.append(
            {
                "workload": spec.workload,
                "paradigm": spec.paradigm,
                "wall_ms": result.wall_ns / 1e6,
                "stages": result.stages,
                "fingerprint": result.fingerprint,
            }
        )
    return time.perf_counter() - start, rows


def stage_totals(rows) -> dict[str, float]:
    totals: dict[str, float] = {}
    for row in rows:
        for stage in row["stages"]:
            totals[stage["stage"]] = (
                totals.get(stage["stage"], 0.0) + stage["ns"] / 1e6
            )
    return {k: round(v, 2) for k, v in sorted(totals.items())}


def bench(name: str, specs) -> dict:
    """Warm a cache, run fast + scalar passes, return the report block."""
    cache = TraceCache()
    print(f"[{name}] warming trace cache ({len(specs)} runs) ...", flush=True)
    for spec in specs:
        cache.get_or_generate(spec)

    print(f"[{name}] fast pass ...", flush=True)
    fast_s, fast_rows = run_suite(specs, cache, scalar=False)
    print(f"  {fast_s:.2f} s")
    print(f"[{name}] scalar pass ...", flush=True)
    scalar_s, scalar_rows = run_suite(specs, cache, scalar=True)
    print(f"  {scalar_s:.2f} s")

    mismatches = [
        (f["workload"], f["paradigm"])
        for f, s in zip(fast_rows, scalar_rows)
        if f["fingerprint"] != s["fingerprint"]
    ]
    speedup = scalar_s / fast_s if fast_s else float("inf")
    return {
        "fast_s": round(fast_s, 3),
        "scalar_s": round(scalar_s, 3),
        "speedup": round(speedup, 3),
        "byte_identical": not mismatches,
        "mismatches": mismatches,
        "stage_totals_ms": {
            "fast": stage_totals(fast_rows),
            "scalar": stage_totals(scalar_rows),
        },
        "runs": {"fast": fast_rows, "scalar": scalar_rows},
    }


#: Self-reporting child for the trace_stream suite: generates one
#: sizeable CT trace through the cache in the requested mode and prints
#: its own peak RSS (a high-water mark, so each mode needs a fresh
#: process).  The peak is Linux's ``VmHWM`` from ``/proc/self/status``:
#: ``ru_maxrss`` would carry over the forking parent's high-water mark
#: (a child of a 300 MiB parent reads about 300 MiB before it
#: allocates anything), which hides the generation delta.  The
#: interpreter+numpy import footprint is recorded as a baseline and
#: subtracted by the parent: import-time residency varies with system
#: page-cache state (a warm cache fault-arounds whole .so files in),
#: and only the *generation delta* above it is the quantity under test.
_STREAM_PROBE = """
import json, sys, tempfile, time
from repro.run import RunSpec, TraceCache

def peak_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

stream = sys.argv[1] == "stream"
baseline_kb = peak_kb()
spec = RunSpec(
    workload="ct", paradigm="finepack", n_gpus=2, iterations=16,
    workload_params={
        "volume_voxels": 500_000_000,
        "total_corrections": 1_600_000,
        "cluster": 1,
    },
)
t0 = time.perf_counter()
with tempfile.TemporaryDirectory() as root:
    cache = TraceCache(root, stream=stream)
    trace = cache.get_or_generate(spec)
    ops = sum(p.stores.count for it in trace.iterations for p in it.phases)
print(json.dumps({
    "ops": ops,
    "baseline_kb": baseline_kb,
    "peak_kb": peak_kb(),
    "wall_s": round(time.perf_counter() - t0, 3),
}))
"""


def bench_trace_stream() -> dict:
    """Peak-RSS comparison: streamed vs whole-trace cache generation."""

    def probe(mode: str) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC)
        out = subprocess.run(
            [sys.executable, "-c", _STREAM_PROBE, mode],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        row = json.loads(out.stdout.strip().splitlines()[-1])
        row["delta_kb"] = row["peak_kb"] - row["baseline_kb"]
        return row

    # Whole-trace mode runs first: its large allocation can perturb the
    # *later* child's import baseline only in the direction that shrinks
    # the streamed delta, so ordering keeps the gate deterministic.
    print("[trace_stream] whole-trace generation ...", flush=True)
    whole = probe("whole")
    print(f"  +{whole['delta_kb'] / 1024:.0f} MiB over import baseline")
    print("[trace_stream] streamed generation ...", flush=True)
    streamed = probe("stream")
    print(f"  +{streamed['delta_kb'] / 1024:.0f} MiB over import baseline")
    return {
        "ops": streamed["ops"],
        "streamed_peak_kb": streamed["peak_kb"],
        "streamed_delta_kb": streamed["delta_kb"],
        "whole_peak_kb": whole["peak_kb"],
        "whole_delta_kb": whole["delta_kb"],
        "rss_ratio": round(
            streamed["delta_kb"] / max(1, whole["delta_kb"]), 3
        ),
        "streamed_s": streamed["wall_s"],
        "whole_s": whole["wall_s"],
        "same_ops": streamed["ops"] == whole["ops"],
    }


def gate_trace_stream(block: dict, max_ratio: float) -> bool:
    """``True`` means the memory gate failed."""
    failed = False
    if not block["same_ops"]:
        print("FAIL [trace_stream]: streamed and whole traces differ in ops")
        failed = True
    if block["rss_ratio"] > max_ratio:
        print(
            f"FAIL [trace_stream]: streamed generation's peak RSS over "
            f"the import baseline is {block['rss_ratio']:.2f}x the "
            f"whole-trace mode's (gate: <= {max_ratio:.2f}x)"
        )
        failed = True
    return failed


def gate(name: str, block: dict, floor: float, baseline_speedup, threshold) -> bool:
    """Print verdicts for one suite; ``True`` means failed."""
    failed = False
    if block["mismatches"]:
        print(
            f"FAIL [{name}]: {len(block['mismatches'])} run(s) not "
            f"byte-identical: {block['mismatches']}"
        )
        failed = True
    if block["speedup"] < floor:
        print(
            f"FAIL [{name}]: speedup {block['speedup']:.2f}x below the "
            f"absolute floor {floor:.2f}x"
        )
        failed = True
    if baseline_speedup is not None:
        rel_floor = threshold * baseline_speedup
        print(
            f"[{name}] baseline speedup {baseline_speedup:.2f}x; "
            f"gate: >= {rel_floor:.2f}x"
        )
        if block["speedup"] < rel_floor:
            print(
                f"FAIL [{name}]: speedup {block['speedup']:.2f}x regressed "
                f"below {threshold} x baseline ({rel_floor:.2f}x)"
            )
            failed = True
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_core.json")
    ap.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="fail if a speedup < threshold * the baseline's speedup",
    )
    ap.add_argument("--threshold", type=float, default=0.75)
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=8.9,
        help="absolute fast-over-scalar floor for the core suite (about "
        "45%% of the committed baseline's speedup)",
    )
    ap.add_argument(
        "--min-collective-speedup",
        type=float,
        default=2.0,
        help="absolute fast-over-scalar floor for the collectives suite",
    )
    ap.add_argument(
        "--skip-collectives",
        action="store_true",
        help="run only the core suite (quick local iteration)",
    )
    ap.add_argument(
        "--skip-trace-stream",
        action="store_true",
        help="skip the streamed-generation peak-RSS suite",
    )
    ap.add_argument(
        "--max-stream-rss-ratio",
        type=float,
        default=0.5,
        help="memory gate: streamed generation's peak RSS must be at "
        "most this fraction of whole-trace generation's (default 0.5, "
        "i.e. a >=2x reduction)",
    )
    args = ap.parse_args(argv)

    # Read the baseline up front: --check and --out may name the same
    # committed file (the refresh-in-place workflow).
    baseline = None
    if args.check:
        baseline = json.loads(Path(args.check).read_text())

    core = bench("core", build_core_suite())
    report = {
        "suite": {
            "workloads": list(WORKLOADS),
            "paradigms": list(PARADIGMS),
            **CORE_SUITE,
        },
        **{k: v for k, v in core.items() if k != "mismatches"},
    }

    collectives = None
    if not args.skip_collectives:
        collectives = bench("collectives", build_collective_suite())
        report["collectives"] = {
            "suite": {
                "workloads": list(COLLECTIVES),
                "paradigms": list(PARADIGMS),
                **COLLECTIVE_SUITE,
            },
            **{k: v for k, v in collectives.items() if k != "mismatches"},
        }

    trace_stream = None
    if not args.skip_trace_stream:
        trace_stream = bench_trace_stream()
        report["trace_stream"] = trace_stream

    # Refresh in place: keep the blocks this script does not write,
    # such as the ``analytical`` block ``make calibrate`` merges in.
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update(report)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    line = f"wrote {args.out}: core speedup {core['speedup']:.2f}x"
    if collectives is not None:
        line += f", collectives speedup {collectives['speedup']:.2f}x"
    if trace_stream is not None:
        line += f", stream RSS ratio {trace_stream['rss_ratio']:.2f}x"
    print(line)

    failed = gate(
        "core",
        core,
        args.min_speedup,
        baseline["speedup"] if baseline is not None else None,
        args.threshold,
    )
    if collectives is not None:
        base_coll = (
            baseline.get("collectives", {}).get("speedup")
            if baseline is not None
            else None
        )
        failed |= gate(
            "collectives",
            collectives,
            args.min_collective_speedup,
            base_coll,
            args.threshold,
        )
    if trace_stream is not None:
        failed |= gate_trace_stream(trace_stream, args.max_stream_rss_ratio)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
