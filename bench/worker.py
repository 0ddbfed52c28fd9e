#!/usr/bin/env python3
"""Child processes of the repository benchmark (``bench/run.py``).

Every measurement starts in a fresh interpreter running this script, so
each one begins with cold in-process caches, like a new CLI invocation.
Each mode prints one JSON object as its last line of standard output::

    setup    generate every trace of the workload into an empty --cache
             (sweep-cold: import only, its timed pass generates)
    timed    run the workload's grid untraced against --cache
    check    reference outputs for the correctness checks (no clock)
    traced   time each layer's public calls from outside; write --spans
    goldens  the seed-7 goldens of the 39 des-* cells (bench/goldens.json)

Spans are recorded only here, around calls into each layer's public
functions; nothing under ``src/`` is instrumented for the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analytical import phase_stats, predict_metrics  # noqa: E402
from repro.analytical.stats import clear_memo  # noqa: E402
from repro.core.config import FinePackConfig  # noqa: E402
from repro.faults.errors import DegradedRunError  # noqa: E402
from repro.interconnect.pcie import GENERATIONS  # noqa: E402
from repro.obs import validate_chrome_trace_file  # noqa: E402
from repro.perf.harness import fingerprint_metrics  # noqa: E402
from repro.perf.profiler import StageProfiler, profiled  # noqa: E402
from repro.run import (  # noqa: E402
    CellFailure,
    OutcomeStore,
    RunContext,
    RunOutcome,
    RunSpec,
    TraceCache,
    execute_grid,
)

HPC = ("als", "ct", "diffusion", "eqwp", "hit", "jacobi", "pagerank", "sssp")
COLLECTIVES = ("allreduce_ring", "allreduce_tree", "allgather", "alltoall", "pipeline")
PARADIGMS = ("p2p", "dma", "finepack")

#: The collectives suite of BENCH_core.json: hop-overlapping fat tree.
FAT_TREE_16 = {
    "n_gpus": 16,
    "iterations": 2,
    "topology": "fat_tree",
    "topology_params": {"fanout": 4},
}
#: Collective shape of the analytical calibration grid and of sweep-cold.
FAT_TREE_8 = {"n_gpus": 8, "topology": "fat_tree"}

GOLDEN_SEED = 7

#: Stages of repro.perf.profiler reported one by one.
SIM_STAGES = (
    "packetizer_rwq",
    "link_serialization",
    "metrics_classify",
    "egress",
    "ingress_drain",
    "engine_dispatch",
)

#: Spans of the setup and traced passes that time one layer's public
#: call; "setup", "traced" and "cell" only group them.
LAYER_SPANS = frozenset(
    {
        "run.cache.generate",
        "run.cache.load",
        "run.context.build",
        "sim.run",
        "analytical.stats",
        "analytical.predict",
        "run.outcomes.put",
        "run.outcomes.get",
    }
)


# -- workloads -------------------------------------------------------


def _label(spec: RunSpec, variant: str = "") -> str:
    label = f"{spec.workload}/{spec.paradigm}/{spec.n_gpus}gpu"
    return f"{label}/{variant}" if variant else label


def des_hpc(seed: int) -> list[tuple[str, RunSpec]]:
    specs = [RunSpec(workload=w, paradigm=p, seed=seed) for w in HPC for p in PARADIGMS]
    return [(_label(s), s) for s in specs]


def des_collectives(seed: int) -> list[tuple[str, RunSpec]]:
    specs = [
        RunSpec(workload=w, paradigm=p, seed=seed, **FAT_TREE_16)
        for w in COLLECTIVES
        for p in PARADIGMS
    ]
    return [(_label(s), s) for s in specs]


def analytical_dse(seed: int) -> list[tuple[str, RunSpec]]:
    """The 546-spec design sweep of ``tools/calibrate_analytical.py``.

    Copied rather than imported, so an edit under ``tools/`` cannot move
    the benchmark.  The calibration cells (PCIe 4, 2 us barrier, default
    FinePack sizes) keep the short ``workload/paradigm/Ngpu`` label.
    """
    shapes = [(w, {}) for w in HPC] + [(w, FAT_TREE_8) for w in COLLECTIVES]
    cells = []
    for workload, shape in shapes:
        base = {"workload": workload, "seed": seed, "fidelity": "analytical", **shape}
        for gen in (3, 4, 5):
            generation = GENERATIONS[gen]
            variants = [
                (
                    RunSpec(paradigm=p, generation=generation, barrier_ns=b, **base),
                    f"gen{gen}-b{b:g}",
                )
                for p in ("p2p", "dma")
                for b in (1_000.0, 2_000.0)
            ]
            variants += [
                (
                    RunSpec(
                        paradigm="finepack",
                        generation=generation,
                        finepack=FinePackConfig(
                            subheader_bytes=sub, queue_entries_per_partition=entries
                        ),
                        **base,
                    ),
                    f"gen{gen}-sh{sub}-q{entries}",
                )
                for sub in (2, 3, 4, 5, 6)
                for entries in (32, 64)
            ]
            for spec, variant in variants:
                default = spec == RunSpec(paradigm=spec.paradigm, **base)
                cells.append((_label(spec, "" if default else variant), spec))
    return cells


def sweep_cold(seed: int) -> list[tuple[str, RunSpec]]:
    specs = [
        RunSpec(workload=w, paradigm=p, seed=seed, **FAT_TREE_8)
        for w in ("allreduce_ring", "alltoall")
        for p in PARADIGMS
    ]
    return des_hpc(seed) + [(_label(s), s) for s in specs]


GRIDS = {
    "des-hpc": des_hpc,
    "des-collectives": des_collectives,
    "analytical-dse": analytical_dse,
    "sweep-cold": sweep_cold,
}

#: Cells in flight; sweep-cold uses both cores of the reference box.
JOBS = {"sweep-cold": 2}

#: Workloads whose timed pass starts from an empty cache and journals.
COLD = frozenset({"sweep-cold"})


def reference_cells(seed: int) -> list[tuple[str, RunSpec]]:
    """The 39 des-* cells: the DES reference of analytical-dse."""
    return des_hpc(seed) + des_collectives(seed)


def unique_traces(specs) -> list[RunSpec]:
    """One spec per distinct trace, in first-use order."""
    first: dict[str, RunSpec] = {}
    for spec in specs:
        first.setdefault(spec.trace_key(), spec)
    return list(first.values())


def trace_ops(trace) -> int:
    return sum(p.stores.count + p.atomics.count for it in trace.iterations for p in it.phases)


# -- per-cell records --------------------------------------------------


def summary(metrics) -> dict:
    """The simulated numbers the checks and end-to-end metrics read."""
    return {
        "fp": fingerprint_metrics(metrics),
        "time_ns": metrics.total_time_ns,
        "wire": metrics.bytes.total,
        "payload": metrics.bytes.payload,
        "useful": metrics.bytes.useful,
    }


def record(label: str, cell) -> dict:
    """One grid cell as JSON: a failure, a degraded run, or its summary."""
    rec = {"label": label, "paradigm": cell.spec.paradigm, "fidelity": cell.spec.fidelity}
    if isinstance(cell, CellFailure):
        return {**rec, "ok": False, "error": f"{cell.error_type}: {cell.message}"}
    if cell.degraded:
        return {**rec, "ok": False, "error": f"degraded: {'; '.join(cell.reasons)}"}
    return {**rec, "ok": True, **summary(cell.metrics)}


def records(cells, results) -> list[dict]:
    return [record(label, cell) for (label, _), cell in zip(cells, results)]


def peak_rss_mib(children: bool) -> float:
    """Peak resident set (Linux reports ru_maxrss in KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def dir_mib(path: Path) -> float:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total / 2**20


# -- modes -------------------------------------------------------------


def run_grid(workload: str, specs, cache_dir: Path, **kwargs):
    """``execute_grid`` exactly as the timed pass calls it."""
    if workload in COLD:
        kwargs["journal"] = cache_dir / "journal"
    return execute_grid(
        specs,
        jobs=JOBS.get(workload, 1),
        trace_cache=TraceCache(cache_dir),
        strict=False,
        **kwargs,
    )


def mode_setup(args) -> dict:
    generated = 0
    if args.workload not in COLD:
        cache = TraceCache(args.cache)
        specs = [s for _, s in GRIDS[args.workload](args.seed)]
        for spec in unique_traces(specs):
            cache.get_or_generate(spec)
        generated = cache.stats()["misses"]
    return {"ready_s": time.monotonic() - args.t0, "generated": generated}


def mode_timed(args) -> dict:
    """The grid, untraced.  sweep-cold's pass is the cold grid from an
    emptied --cache and then its resume: ``wall_s`` covers both,
    ``resume_s`` the second."""
    cells = GRIDS[args.workload](args.seed)
    specs = [s for _, s in cells]
    if args.workload in COLD:
        shutil.rmtree(args.cache, ignore_errors=True)
    t0 = time.perf_counter()
    grid = run_grid(args.workload, specs, args.cache)
    if args.workload in COLD:
        t1 = time.perf_counter()
        resumed = run_grid(args.workload, specs, args.cache, resume=True)
        resume_s = time.perf_counter() - t1
    wall_s = time.perf_counter() - t0
    out = {
        "wall_s": wall_s,
        "rss_mib": peak_rss_mib(children=JOBS.get(args.workload, 1) > 1),
        "cells": records(cells, grid.cells),
        "retry_stats": grid.retry_stats,
    }
    if args.workload in COLD:
        out["resume_s"] = resume_s
        out["resume_cells"] = records(cells, resumed.cells)
    return out


def mode_check(args) -> dict:
    """Predictions for the workload's DES cells (analytical-dse: the DES
    of the 39 des-* cells and their predictions)."""
    cache = TraceCache(args.cache)
    out = {}
    if args.workload == "analytical-dse":
        refs = reference_cells(args.seed)
        grid = execute_grid([s for _, s in refs], trace_cache=cache, strict=False)
        out["des"] = records(refs, grid.cells)
    else:
        refs = [c for c in GRIDS[args.workload](args.seed) if c[1].fidelity == "des"]
    out["predicted"] = {
        label: summary(predict_metrics(spec, cache.get_or_generate(spec)))
        for label, spec in refs
    }
    return out


def mode_goldens(args) -> dict:
    cells = reference_cells(GOLDEN_SEED)
    grid = execute_grid([s for _, s in cells], strict=False)
    goldens = {}
    for (label, spec), outcome in zip(cells, grid.cells):
        if isinstance(outcome, CellFailure) or outcome.degraded:
            raise SystemExit(f"{label} did not complete; no goldens written")
        goldens[label] = {"spec_key": spec.key(), **summary(outcome.metrics)}
    return {"seed": GOLDEN_SEED, "cells": goldens}


# -- traced run --------------------------------------------------------


class Spans:
    """Spans kept in memory: name, start, end, parent and cell id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, cell: int | None = None):
        """Time the body; the caller may rename the yielded record."""
        rec = {
            "name": name,
            "cell": cell,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def dur_s(self, rec: dict) -> float:
        return (rec["end"] - rec["start"]) / 1e9

    def self_s(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        out = [self.dur_s(r) for r in self.spans]
        for r in self.spans:
            if r["parent"] is not None:
                out[r["parent"]] -= self.dur_s(r)
        return out

    def named(self, name: str) -> list[dict]:
        return [r for r in self.spans if r["name"] == name]

    def write_chrome(self, path: Path, label: str) -> None:
        events = [
            {"name": "process_name", "ph": "M", "ts": 0, "pid": 0, "tid": 0,
             "args": {"name": label}},
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": 0, "tid": 1,
             "args": {"name": "bench"}},
        ]
        for i, r in enumerate(self.spans):
            parent = r["parent"]
            events.append(
                {
                    "name": r["name"],
                    "cat": "bench",
                    "ph": "X",
                    "ts": (r["start"] - self._origin) / 1e3,
                    "dur": (r["end"] - r["start"]) / 1e3,
                    "pid": 0,
                    "tid": 1,
                    "args": {
                        "span": i,
                        "parent": parent,
                        "parent_name": None if parent is None else self.spans[parent]["name"],
                        "cell": r["cell"],
                    },
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ns"}))
        validate_chrome_trace_file(str(path))


@contextmanager
def _timed_calls(cls, name: str, sink: list):
    """Append the duration (ns) of every ``cls.name`` call to ``sink``."""
    original = getattr(cls, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter_ns() - t0)

    setattr(cls, name, timed)
    try:
        yield sink
    finally:
        setattr(cls, name, original)


def _traced_cell(spans, i, spec, cache, store, stage_ns) -> RunOutcome:
    """One cell with a span around every layer call it makes."""
    misses = cache.stats()["misses"]
    with spans.span("run.cache.load", cell=i) as sp:
        trace = cache.get_or_generate(spec)
    if cache.stats()["misses"] > misses:
        sp["name"] = "run.cache.generate"
    ctx = RunContext(spec, cache, trace=trace)
    degraded = False
    if spec.fidelity == "analytical":
        with spans.span("analytical.predict", cell=i):
            metrics = ctx.run()
    else:
        with spans.span("run.context.build", cell=i):
            ctx.system
            ctx.paradigm
        profiler = StageProfiler()
        with spans.span("sim.run", cell=i), profiled(profiler):
            try:
                metrics = ctx.run()
            except DegradedRunError as exc:
                metrics, degraded = exc.metrics, True
        for stage, ns in profiler.stage_ns().items():
            stage_ns[stage] += ns
    outcome = RunOutcome(spec=spec, metrics=metrics, degraded=degraded)
    if store is not None:
        with spans.span("run.outcomes.put", cell=i):
            store.put(outcome)
    return outcome


def _percentile(values, q: int) -> float:
    """The q-th percentile (0 with no samples)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mode_traced(args) -> dict:
    """Four passes over the same grid, all in this process.

    ``setup`` generates the traces under spans; ``grid`` is the untraced
    ``execute_grid`` call of the timed pass; ``cells`` times each cell's
    ``RunContext.execute()`` with nothing else; ``traced`` repeats the
    cells with a span around every layer call.  Memos are cleared before
    each pass so each starts as cold as a new process.
    """
    w, work = args.workload, args.cache
    cells = GRIDS[w](args.seed)
    specs = [s for _, s in cells]
    jobs = JOBS.get(w, 1)
    cold = w in COLD
    # sweep-cold generates inside every pass, so each gets an empty cache.
    grid_dir = work / "grid"
    cells_dir = work / "cells" if cold else grid_dir
    traced_dir = work / "traced" if cold else grid_dir
    spans = Spans()
    gen_ops = 0

    with spans.span("setup") as setup_span:
        if not cold:
            cache = TraceCache(grid_dir)
            for spec in unique_traces(specs):
                with spans.span("run.cache.generate"):
                    gen_ops += trace_ops(cache.get_or_generate(spec))

    clear_memo()
    executed: list[int] = []
    with spans.span("grid"):
        with spans.span("run.executor.grid") as grid_span:
            if jobs == 1:
                with _timed_calls(RunContext, "execute", executed):
                    grid = run_grid(w, specs, grid_dir)
            else:
                grid = run_grid(w, specs, grid_dir)
        resumed = None
        if cold:
            with spans.span("run.executor.resume") as resume_span:
                resumed = run_grid(w, specs, grid_dir, resume=True)

    clear_memo()
    cache = TraceCache(cells_dir)
    store = OutcomeStore(cells_dir / "outcomes") if cold else None
    with spans.span("cells") as cells_span:
        for i, spec in enumerate(specs):
            with spans.span("cell", cell=i):
                outcome = RunContext(spec, cache).execute()
                if store is not None:
                    store.put(outcome)

    clear_memo()
    cache = TraceCache(traced_dir)
    store = OutcomeStore(traced_dir / "outcomes") if cold else None
    stage_ns: dict[str, float] = defaultdict(float)
    outcomes = []
    with spans.span("traced") as traced_span:
        if w == "analytical-dse":
            for spec in unique_traces(specs):
                with spans.span("run.cache.load"):
                    trace = cache.get_or_generate(spec)
                with spans.span("analytical.stats"):
                    for it in trace.iterations:
                        for phase in it.phases:
                            phase_stats(phase)
        for i, spec in enumerate(specs):
            with spans.span("cell", cell=i):
                outcomes.append(_traced_cell(spans, i, spec, cache, store, stage_ns))
        if cold:
            store = OutcomeStore(traced_dir / "outcomes")
            for i, spec in enumerate(specs):
                with spans.span("run.outcomes.get", cell=i):
                    store.get(spec)
    if cold:
        # A traced cell that had to generate loaded nothing from disk.
        gen_ops = sum(
            trace_ops(cache.get_or_generate(specs[r["cell"]]))
            for r in spans.named("run.cache.generate")
        )

    # -- per-layer numbers from the spans ------------------------------
    self_s = spans.self_s()

    def total(name: str) -> float:
        return sum(self_s[i] for i, r in enumerate(spans.spans) if r["name"] == name)

    def ms(name: str) -> list[float]:
        return [spans.dur_s(r) * 1e3 for r in spans.named(name)]

    labels = [label for label, _ in cells]
    sim_ms = ms("sim.run")
    sim_cells = [r["cell"] for r in spans.named("sim.run")]
    sim_s = total("sim.run")
    sim_ops = sum(trace_ops(cache.get_or_generate(specs[i])) for i in sim_cells)
    fp_metrics = [
        o.metrics for o in outcomes if o.spec.fidelity == "des" and o.spec.paradigm == "finepack"
    ]
    fp_messages = sum(m.packets.messages for m in fp_metrics)
    fp_wire = sum(m.bytes.total for m in fp_metrics)
    gen_s = total("run.cache.generate")
    cells_s = spans.dur_s(cells_span)
    grid_s = spans.dur_s(grid_span)
    # In-process grids are compared with their own cells' execute() time;
    # a pool's cells run elsewhere, so with the serial pass over jobs.
    busy_s = sum(executed) / 1e9 if jobs == 1 else cells_s / jobs
    # Layer spans occur only inside the setup and traced passes.
    traced_wall = spans.dur_s(setup_span) + spans.dur_s(traced_span)
    layer_s = sum(s for s, r in zip(self_s, spans.spans) if r["name"] in LAYER_SPANS)
    layers = {
        "run.cache.generate_s": gen_s,
        "run.cache.misses": len(spans.named("run.cache.generate")),
        "trace.gen_ops_per_s": gen_ops / gen_s if gen_s else 0.0,
        "trace.disk_mib": sum(dir_mib(p) for p in traced_dir.glob("trace-*")),
        "run.cache.load_s": total("run.cache.load"),
        "run.cache.hits": len(spans.named("run.cache.load")),
        "run.context.build_s": total("run.context.build"),
        "sim.run_s": sim_s,
        "sim.ops_per_s": sim_ops / sim_s if sim_s else 0.0,
        "sim.cell_ms_p50": statistics.median(sim_ms) if sim_ms else 0.0,
        "sim.cell_ms_max": max(sim_ms, default=0.0),
        **{f"sim.stage.{s}_s": stage_ns.get(s, 0.0) / 1e9 for s in SIM_STAGES},
        "sim.unattributed_s": sim_s - sum(stage_ns.values()) / 1e9,
        "sim.messages": sum(
            o.metrics.packets.messages for o in outcomes if o.spec.fidelity == "des"
        ),
        "sim.stores_per_packet": (
            sum(m.packets.stores_carried for m in fp_metrics) / fp_messages
            if fp_messages else 0.0
        ),
        "sim.goodput": (
            sum(m.bytes.payload for m in fp_metrics) / fp_wire if fp_wire else 0.0
        ),
        "analytical.stats_s": total("analytical.stats"),
        "analytical.predict_s": total("analytical.predict"),
        "analytical.cell_ms_p50": _percentile(ms("analytical.predict"), 50),
        "analytical.cell_ms_p98": _percentile(ms("analytical.predict"), 98),
        "run.executor.overhead_s": grid_s - busy_s,
        "run.executor.idle_frac": 1.0 - busy_s / grid_s,
        "run.executor.attempts": grid.retry_stats["attempts"],
        "run.executor.retried": grid.retry_stats["retried"],
        "run.outcomes.put_ms": _percentile(ms("run.outcomes.put"), 50),
        "run.outcomes.get_ms": _percentile(ms("run.outcomes.get"), 50),
        "run.outcomes.hits": resumed.outcome_cache["hits"] if cold else 0,
        "run.outcomes.disk_mib": dir_mib(grid_dir / "outcomes") if cold else 0.0,
        "run.resume_s": spans.dur_s(resume_span) if cold else 0.0,
        "unattributed_s": traced_wall - layer_s,
        "trace_overhead_frac": spans.dur_s(traced_span) / cells_s - 1.0,
    }

    spans.write_chrome(args.spans, f"{w} seed {args.seed}")
    grid_records = records(cells, grid.cells)
    traced_records = records(cells, outcomes)
    return {
        "layers": layers,
        "traced_wall_s": traced_wall,
        "slowest_sim_cell": labels[sim_cells[sim_ms.index(max(sim_ms))]] if sim_ms else None,
        "cells": grid_records,
        "resume_cells": records(cells, resumed.cells) if cold else [],
        # Tracing must not change a result.
        "traced_mismatch": [
            g["label"]
            for g, t in zip(grid_records, traced_records)
            if g.get("fp") != t.get("fp")
        ],
        "spans": str(args.spans),
    }


MODES = {
    "setup": mode_setup,
    "timed": mode_timed,
    "check": mode_check,
    "traced": mode_traced,
    "goldens": mode_goldens,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=sorted(MODES))
    ap.add_argument("--workload", choices=sorted(GRIDS))
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--cache", type=Path, help="trace-cache / work directory")
    ap.add_argument("--spans", type=Path, help="Chrome trace output (traced)")
    ap.add_argument(
        "--t0",
        type=float,
        default=None,
        help="parent's time.monotonic() at spawn; the clock is system-wide",
    )
    args = ap.parse_args(argv)
    if args.mode != "goldens" and (args.workload is None or args.cache is None):
        ap.error(f"{args.mode} needs --workload and --cache")
    if args.t0 is None:
        args.t0 = time.monotonic()
    out = MODES[args.mode](args)
    print(json.dumps(out, indent=1 if args.mode == "goldens" else None))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
