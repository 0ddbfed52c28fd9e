"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show available workloads and paradigms.
``run``
    Trace one workload and replay it under one paradigm.
``compare``
    The paper's core experiment for one workload: all paradigms plus
    the single-GPU baseline, with speedups and byte breakdowns.
``trace``
    Generate a workload trace and save it to an ``.npz`` file.
``replay``
    Replay a saved trace under a paradigm.
``goodput``
    Print the Figure 2 goodput table.
``profile``
    Run one workload/paradigm under the stage profiler
    (:mod:`repro.perf`) and print where the wall clock went; with
    ``--scalar`` the run takes the scalar reference paths instead of
    the vectorized fast paths (the one fast/scalar switch,
    :func:`repro.perf.scalar_reference`) so the two modes can be
    compared (their metrics are byte-identical).
``chaos``
    Sweep a fault scenario's intensity across paradigms and print the
    degradation curve (see :mod:`repro.faults`).

Every command that replays a trace (``run``, ``compare``, ``sweep``,
``replay``, ``validate``, ``chaos``, ``profile``) builds its system
from the same fabric flags: ``--gen``, ``--subheader-bytes`` and
``--error-rate P``, which gives every link a baseline per-byte
corruption probability (DLL replay injection); nonzero fault activity
adds a per-link fabric-stats table to ``run`` output.  ``run``,
``compare``, ``sweep`` and ``profile`` also accept ``--topology KIND``
(any registered topology: ``fat_tree``, ``switched_mesh``,
``two_level``, ``fully_connected``) plus factory knobs ``--fanout``,
``--oversubscription`` and ``--planes``.

``run``, ``compare``, ``sweep`` and ``replay`` also accept
``--fidelity {des,analytical}``.  The default ``des`` replays every
event through the discrete-event simulator; ``analytical`` predicts
each run's metrics in closed form from trace statistics (orders of
magnitude faster; calibrated against the DES, see
``docs/analytical.md``).
``sweep --fidelity analytical --refine-top K`` confirms a cheap
sweep's winners by re-running the K fastest points per workload at
DES fidelity; every report table labels which model produced each row
(``des``, ``analytical``, or ``des (refined)``).

``sweep`` takes a workload name, a comma-separated list, or the
``collectives`` family alias (ring/tree all-reduce, all-gather,
all-to-all, pipeline), and with the ``paradigm`` sweep parameter
reports FinePack-vs-DMA-vs-p2p speedup and goodput per workload::

    repro sweep collectives paradigm --topology fat_tree --gpus 8

``sweep``, ``compare`` and ``chaos`` accept ``--jobs N`` to fan the
run grid over worker processes (results are byte-identical to the
serial run) and ``--trace-cache DIR`` to share generated workload
traces across processes and invocations through the content-addressed
cache (:mod:`repro.run`); cache traffic is reported after the table.

``run``, ``sweep`` and ``chaos`` accept ``--trace-out FILE`` to record
the run's structured event stream (``repro.obs``) and export it -- as
Chrome ``trace_event`` JSON loadable in ``chrome://tracing``/Perfetto,
or (``run`` only) as compact JSONL when the file name ends in
``.jsonl``; an empty file name is rejected.  Traced runs check runtime
invariants (byte conservation, link exclusivity, empty remote write
queues at barriers) as they go.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis import format_table, goodput_curve
from .core.config import FabricConfig, FinePackConfig
from .interconnect.pcie import GENERATIONS
from .run import RunContext, RunSpec, labeled_sweep
from .sim.metrics import RunMetrics
from .sim.paradigms import PARADIGMS
from .trace.tracefile import load_trace, save_trace
from .workloads import WORKLOADS


def _add_shape_args(p: argparse.ArgumentParser) -> None:
    """The flags that shape a workload trace."""
    p.add_argument("--gpus", type=int, default=4, help="GPU count (default 4)")
    p.add_argument(
        "--iterations", type=int, default=3, help="iterations to trace (default 3)"
    )
    p.add_argument("--seed", type=int, default=7, help="dataset seed (default 7)")


def _add_fabric_args(p: argparse.ArgumentParser) -> None:
    """The flags that shape the system a trace replays on."""
    p.add_argument(
        "--gen",
        type=int,
        default=4,
        choices=sorted(GENERATIONS),
        help="PCIe generation (default 4)",
    )
    p.add_argument(
        "--subheader-bytes",
        type=int,
        default=5,
        help="FinePack sub-header size, 2-6 (default 5)",
    )
    p.add_argument(
        "--error-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-byte corruption probability on every link; corrupted "
        "packets pay DLL replays (default 0)",
    )
    p.add_argument(
        "--fidelity",
        default="des",
        choices=("des", "analytical"),
        help="execution fidelity: 'des' replays every event through the "
        "discrete-event simulator; 'analytical' predicts the metrics "
        "in closed form from trace statistics (orders of magnitude "
        "faster; see docs/analytical.md for the calibrated error "
        "budget; default des)",
    )


def _add_topology_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--topology",
        default=None,
        metavar="KIND",
        help="topology registry kind (single_switch, two_level, "
        "fat_tree, switched_mesh, fully_connected; default "
        "single_switch)",
    )
    p.add_argument(
        "--fanout",
        type=int,
        default=None,
        help="GPUs per leaf switch (fat_tree/two_level; factory default 4)",
    )
    p.add_argument(
        "--oversubscription",
        type=float,
        default=None,
        help="fat-tree uplink oversubscription ratio (1 = full "
        "bisection; factory default 1)",
    )
    p.add_argument(
        "--planes",
        type=int,
        default=None,
        help="switch planes of a switched_mesh (factory default 2)",
    )


def _topology_fields(args: argparse.Namespace) -> tuple[str | None, tuple]:
    """``(kind, frozen params)`` from the topology flags, registry-checked."""
    kind = getattr(args, "topology", None)
    params = {
        name: value
        for name in ("fanout", "oversubscription", "planes")
        if (value := getattr(args, name, None)) is not None
    }
    if params and kind is None:
        raise SystemExit(
            "--fanout/--oversubscription/--planes require --topology"
        )
    if kind is not None:
        from .registry import RegistryError, topologies

        try:
            topologies.resolve(kind)
        except RegistryError as exc:
            raise SystemExit(str(exc)) from None
    return kind, tuple(sorted(params.items()))


def _trace_path(value: str) -> str:
    if not value.strip():
        raise argparse.ArgumentTypeError("--trace-out needs a file name")
    return value


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        type=_trace_path,
        default=None,
        metavar="FILE",
        help="export the run's event trace (Chrome trace_event JSON; "
        "use a .jsonl extension for the compact JSONL stream)",
    )


def _add_parallel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the run grid (default 1: in-process; "
        "results are identical either way)",
    )
    p.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="directory for the content-addressed workload-trace cache "
        "(shared across processes and invocations; default: "
        "$REPRO_TRACE_CACHE if set, else in-memory only)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock budget; a hung worker is killed, the "
        "cell retried (requires --jobs > 1)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="re-attempts per grid cell after a crash/hang/error before "
        "it is quarantined (default 2, i.e. up to 3 attempts)",
    )
    p.add_argument(
        "--no-strict",
        action="store_true",
        help="finish the grid even if cells exhaust their retry budget; "
        "failed cells are reported and omitted from the table",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted invocation from its grid journal, "
        "re-running only unfinished or quarantined cells (requires "
        "--trace-cache DIR, where the journal and outcome store live)",
    )


def _resilience_kwargs(args: argparse.Namespace) -> dict:
    """`execute_grid` resilience knobs from the parallel CLI flags.

    Journaling (and with it the colocated outcome store) switches on
    whenever a disk trace cache gives it a durable home -- that is what
    makes a killed ``repro sweep --trace-cache DIR ...`` resumable by
    re-running the same command with ``--resume``.
    """
    if args.resume and not args.trace_cache:
        raise SystemExit("--resume requires --trace-cache DIR")
    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit(f"--timeout must be positive, got {args.timeout:g}")
    if args.retries is not None and args.retries < 0:
        raise SystemExit(f"--retries must be >= 0, got {args.retries}")
    kwargs: dict = {"strict": not args.no_strict}
    if args.timeout is not None:
        kwargs["timeout"] = args.timeout
    if args.retries is not None:
        kwargs["retries"] = args.retries
    if args.trace_cache:
        kwargs["journal"] = args.trace_cache
        kwargs["resume"] = args.resume
    return kwargs


def _print_resilience_stats(
    retry_stats: dict,
    outcome_cache: dict,
    failures,
    args: argparse.Namespace,
    out,
) -> None:
    """Surface executor retry/quarantine accounting and outcome-store
    traffic; failed cells are always reported."""
    if retry_stats and (retry_stats.get("retried") or retry_stats.get("quarantined")):
        print(
            f"executor: {retry_stats['attempts']} attempt(s), "
            f"{retry_stats['retried']} retried, "
            f"{retry_stats['quarantined']} quarantined "
            f"({retry_stats['crashes']} crash(es), "
            f"{retry_stats['timeouts']} timeout(s), "
            f"{retry_stats['errors']} error(s))",
            file=out,
        )
    if outcome_cache and args.trace_cache and (
        outcome_cache.get("hits") or outcome_cache.get("misses")
    ):
        print(
            f"outcome store: {outcome_cache['hits']} hit(s), "
            f"{outcome_cache['misses']} miss(es), "
            f"{outcome_cache['corrupt']} corrupt",
            file=out,
        )
    for f in failures:
        print(
            f"FAILED cell {f.index} [{f.spec.workload}/{f.spec.paradigm}]: "
            f"{f.kind} {f.error_type} after {f.attempts} attempt(s): "
            f"{f.message}",
            file=out,
        )


def _check_jobs(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs > 1 and getattr(args, "trace_out", None):
        raise SystemExit(
            "--trace-out records in-process event streams and requires "
            "--jobs 1"
        )
    return args.jobs


def _print_cache_stats(stats: dict, args: argparse.Namespace, out) -> None:
    """Surface trace-cache traffic when the user opted into the new
    execution machinery (the observable proof a warm cache skipped
    trace generation)."""
    if args.jobs > 1 or args.trace_cache:
        print(
            f"trace cache: {stats['hits']} hit(s), {stats['misses']} "
            f"miss(es), {stats['corrupt']} corrupt",
            file=out,
        )


def _trace_metadata(args: argparse.Namespace) -> dict:
    meta = {
        "gpus": args.gpus,
        "iterations": args.iterations,
        "seed": args.seed,
        "generation": args.gen,
    }
    if args.error_rate:
        meta["error_rate"] = args.error_rate
    return meta


def _fabric_fields(args: argparse.Namespace) -> dict:
    """:class:`RunSpec` fields from the fabric and topology flags."""
    topology, topology_params = _topology_fields(args)
    return {
        "generation": GENERATIONS[args.gen],
        "finepack": FinePackConfig(subheader_bytes=args.subheader_bytes),
        "fabric": FabricConfig(error_rate=args.error_rate),
        "topology": topology,
        "topology_params": topology_params,
        "fidelity": args.fidelity,
    }


def _spec(
    args: argparse.Namespace, workload: str, paradigm: str = "finepack"
) -> RunSpec:
    """The :class:`RunSpec` the flags describe for one workload name."""
    return RunSpec.for_workload(
        _workload(workload),
        paradigm,
        n_gpus=args.gpus,
        iterations=args.iterations,
        seed=args.seed,
        **_fabric_fields(args),
    )


def _check_fidelity(args: argparse.Namespace) -> str:
    """Reject flag combinations the analytical tier cannot serve."""
    fidelity = args.fidelity
    if fidelity == "analytical":
        if getattr(args, "trace_out", None):
            raise SystemExit(
                "--trace-out records discrete events and requires "
                "--fidelity des"
            )
        if args.error_rate:
            raise SystemExit(
                "--error-rate injects event-ordered faults and requires "
                "--fidelity des"
            )
    return fidelity


def _fidelity_label(metrics: RunMetrics, refined: bool = False) -> str:
    """Table label for which model produced a row's metrics."""
    if refined:
        return "des (refined)"
    return metrics.fidelity


def _workload(name: str):
    from .registry import RegistryError, workloads

    try:
        return workloads.resolve(name)()
    except RegistryError as exc:
        raise SystemExit(str(exc)) from None


def _print_metrics(m: RunMetrics, out) -> None:
    rows = [[k, v] for k, v in m.summary().items()]
    print(format_table(f"{m.workload} / {m.paradigm}", ["metric", "value"], rows), file=out)


def cmd_list(args, out) -> int:
    from .registry import topologies

    rows = [
        [name, cls().comm_pattern] for name, cls in sorted(WORKLOADS.items())
    ]
    print(format_table("workloads", ["name", "communication"], rows), file=out)
    print(file=out)
    rows = [[name] for name in sorted(PARADIGMS)]
    print(format_table("paradigms", ["name"], rows), file=out)
    print(file=out)
    rows = [[name] for name, _ in sorted(topologies.items())]
    print(format_table("topologies", ["name"], rows), file=out)
    return 0


def cmd_run(args, out) -> int:
    workload_name = args.workload_flag or args.workload
    if workload_name is None:
        raise SystemExit("run: name a workload (positionally or via --workload)")
    _check_fidelity(args)
    tracer = None
    if args.trace_out:
        from .obs import Tracer

        tracer = Tracer()
    spec = _spec(args, workload_name, args.paradigm)
    metrics = RunContext(spec, tracer=tracer).run()
    _print_metrics(metrics, out)
    if metrics.faults.any:
        from .analysis import format_link_stats_table

        print(format_link_stats_table(metrics), file=out)
    if args.timeline:
        from .sim.timeline import render_timeline

        print(render_timeline(metrics), file=out)
    if tracer is not None:
        from .analysis import format_link_timeline
        from .obs import write_chrome_trace, write_jsonl

        if args.trace_out.endswith(".jsonl"):
            write_jsonl(args.trace_out, tracer)
        else:
            write_chrome_trace(
                args.trace_out,
                {f"{workload_name}/{args.paradigm}": tracer},
                metadata=_trace_metadata(args),
            )
        print(format_link_timeline(tracer), file=out)
        print(
            f"wrote {args.trace_out}: {len(tracer.events)} events, "
            f"invariants OK",
            file=out,
        )
    return 0


#: ``repro sweep collectives ...`` expands to the full collective family.
COLLECTIVE_WORKLOADS = (
    "allreduce_ring",
    "allreduce_tree",
    "allgather",
    "alltoall",
    "pipeline",
)


def _expand_workloads(spec: str) -> list[str]:
    """Split a comma-separated workload list, expanding family aliases."""
    names: list[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "collectives":
            names.extend(COLLECTIVE_WORKLOADS)
        else:
            names.append(part)
    if not names:
        raise SystemExit("sweep: name at least one workload")
    return names


def cmd_sweep(args, out) -> int:
    from .run import refine_top_k

    jobs = _check_jobs(args)
    fidelity = _check_fidelity(args)
    if args.refine_top:
        if args.refine_top < 0:
            raise SystemExit(
                f"--refine-top must be >= 0, got {args.refine_top}"
            )
        if fidelity != "analytical":
            raise SystemExit(
                "--refine-top confirms a cheap sweep's winners at DES "
                "fidelity and requires --fidelity analytical"
            )
    names = _expand_workloads(args.workload)
    tracers: dict[str, object] = {}
    tracer_factory = None
    if args.trace_out:
        from .obs import Tracer

        def tracer_factory(label: str):
            tracers[label] = Tracer()
            return tracers[label]

    rows = []
    cache_stats = {"hits": 0, "misses": 0, "corrupt": 0}
    retry_stats: dict = {}
    outcome_cache: dict = {}
    failures = []
    resilience = _resilience_kwargs(args)
    for name in names:
        base = _spec(args, name)
        prefix = f"{name}:" if len(names) > 1 else ""
        if args.param == "subheader":
            labeled = {
                f"{prefix}{b}B": base.with_options(
                    paradigm="finepack",
                    finepack=FinePackConfig(subheader_bytes=b),
                )
                for b in (2, 3, 4, 5, 6)
            }
        elif args.param == "generation":
            labeled = {
                f"{prefix}gen{g}": base.with_options(
                    paradigm=args.paradigm, generation=GENERATIONS[g]
                )
                for g in sorted(GENERATIONS)
            }
        else:  # paradigm
            labeled = {
                f"{prefix}{p}": base.with_options(paradigm=p)
                for p in args.paradigms
            }
        # One labeled_sweep per workload so each gets its own 1-GPU
        # baseline (speedups across different workloads must not share
        # a normalization run).
        run = labeled_sweep(
            labeled,
            jobs=jobs,
            trace_cache=args.trace_cache,
            tracer_factory=tracer_factory,
            **resilience,
        )
        refined_labels: set[str] = set()
        if args.refine_top:
            run, refined_labels = refine_top_k(
                run,
                labeled,
                args.refine_top,
                jobs=jobs,
                trace_cache=args.trace_cache,
                **resilience,
            )
        for k, v in run.cache_stats().items():
            cache_stats[k] += v
        for k, v in run.retry_stats.items():
            retry_stats[k] = retry_stats.get(k, 0) + v
        for k, v in run.outcome_cache.items():
            outcome_cache[k] = outcome_cache.get(k, 0) + v
        failures += run.failures
        rows += [
            [p.label, _fidelity_label(p.metrics, p.label in refined_labels),
             p.speedup, p.metrics.goodput,
             p.metrics.wire_bytes / 1e6,
             p.metrics.packets.mean_stores_per_packet]
            for p in run.result.points
        ]
    print(
        format_table(
            f"{args.workload}: {args.param} sweep",
            ["config", "fidelity", "speedup", "goodput", "wire_MB",
             "stores/pkt"],
            rows,
            float_fmt="{:.2f}",
        ),
        file=out,
    )
    _print_cache_stats(cache_stats, args, out)
    _print_resilience_stats(retry_stats, outcome_cache, failures, args, out)
    if tracers:
        from .obs import write_chrome_trace

        write_chrome_trace(args.trace_out, tracers, metadata=_trace_metadata(args))
        total_events = sum(len(t.events) for t in tracers.values())
        print(
            f"wrote {args.trace_out}: {len(tracers)} sweep points, "
            f"{total_events} events",
            file=out,
        )
    return 0


def cmd_compare(args, out) -> int:
    jobs = _check_jobs(args)
    _check_fidelity(args)
    base = _spec(args, args.workload)
    run = labeled_sweep(
        {p: base.with_options(paradigm=p) for p in args.paradigms},
        jobs=jobs,
        trace_cache=args.trace_cache,
        **_resilience_kwargs(args),
    )
    rows = [
        [
            p.label,
            _fidelity_label(p.metrics),
            p.speedup,
            p.metrics.total_time_ns / 1e6,
            p.metrics.wire_bytes / 1e6,
            p.metrics.packets.mean_stores_per_packet,
        ]
        for p in run.result.points
    ]
    print(
        format_table(
            f"{args.workload}: {args.gpus}-GPU comparison "
            f"(1-GPU time {run.baseline.metrics.total_time_ns / 1e6:.3f} ms)",
            ["paradigm", "fidelity", "speedup", "time_ms", "wire_MB",
             "stores/pkt"],
            rows,
            float_fmt="{:.2f}",
        ),
        file=out,
    )
    _print_cache_stats(run.cache_stats(), args, out)
    _print_resilience_stats(
        run.retry_stats, run.outcome_cache, run.failures, args, out
    )
    return 0


def cmd_trace(args, out) -> int:
    trace = _workload(args.workload).generate_trace(
        n_gpus=args.gpus, iterations=args.iterations, seed=args.seed
    )
    save_trace(trace, args.output)
    print(
        f"wrote {args.output}: {trace.n_iterations} iterations, "
        f"{trace.total_remote_stores()} remote stores, "
        f"{trace.total_remote_bytes() / 1e6:.2f} MB pushed",
        file=out,
    )
    return 0


def cmd_replay(args, out) -> int:
    _check_fidelity(args)
    trace = load_trace(args.trace)
    spec = RunSpec(
        workload=trace.name,
        paradigm=args.paradigm,
        n_gpus=trace.n_gpus,
        iterations=trace.n_iterations,
        **_fabric_fields(args),
    )
    _print_metrics(RunContext(spec, trace=trace).run(), out)
    return 0


def cmd_validate(args, out) -> int:
    from .sim.validation import validate

    if args.fidelity == "analytical":
        raise SystemExit(
            "validate checks invariants of replayed events and requires "
            "--fidelity des"
        )
    ctx = RunContext(_spec(args, args.workload, args.paradigm))
    report = validate(ctx.trace, ctx.paradigm, ctx.system)
    print(report.summary(), file=out)
    print(
        ("all checks passed" if report.passed else "FAILURES DETECTED"), file=out
    )
    return 0 if report.passed else 1


def cmd_chaos(args, out) -> int:
    from .faults import chaos_sweep, format_chaos_table, list_scenarios, load_scenario

    if args.list:
        from .faults.scenarios import SCENARIOS

        rows = [
            [name, SCENARIOS[name].get("description", "")]
            for name in list_scenarios()
        ]
        print(format_table("chaos scenarios", ["name", "description"], rows), file=out)
        return 0
    if args.workload is None:
        raise SystemExit("chaos: name a workload (or use --list)")
    if args.fidelity == "analytical":
        raise SystemExit(
            "chaos sweeps inject event-ordered faults and require "
            "--fidelity des"
        )
    schedule = load_scenario(args.scenario)
    tracers: dict[str, object] = {}
    tracer_factory = None
    if args.trace_out:
        from .obs import Tracer

        def tracer_factory(label: str):
            tracers[label] = Tracer()
            return tracers[label]

    jobs = _check_jobs(args)
    result = chaos_sweep(
        _spec(args, args.workload),
        schedule,
        intensities=tuple(args.intensities),
        paradigms=tuple(args.paradigms),
        tracer_factory=tracer_factory,
        jobs=jobs,
        trace_cache=args.trace_cache,
        **_resilience_kwargs(args),
    )
    print(format_chaos_table(result), file=out)
    _print_cache_stats(result.cache_stats, args, out)
    _print_resilience_stats(
        result.retry_stats, result.outcome_cache, result.failures, args, out
    )
    degraded = [p for p in result.points if p.degraded]
    if degraded:
        print(
            f"{len(degraded)} run(s) degraded gracefully "
            f"(partial metrics above); first reason: {degraded[0].reasons[0]}",
            file=out,
        )
    if args.json:
        result.write_json(args.json)
        print(f"wrote {args.json}", file=out)
    if tracers:
        from .obs import write_chrome_trace

        meta = _trace_metadata(args)
        meta["scenario"] = schedule.name
        write_chrome_trace(args.trace_out, tracers, metadata=meta)
        total_events = sum(len(t.events) for t in tracers.values())
        print(
            f"wrote {args.trace_out}: {len(tracers)} chaos points, "
            f"{total_events} events, invariants OK",
            file=out,
        )
    return 0


def cmd_profile(args, out) -> int:
    import json

    from .perf.harness import profile_run
    from .run import TraceCache

    if args.repeat < 1:
        raise SystemExit(f"--repeat must be >= 1, got {args.repeat}")
    spec = _spec(args, args.workload, args.paradigm)
    # One in-memory cache across repeats: the first run pays trace
    # generation, later ones profile the simulator alone.
    cache = TraceCache(args.trace_cache) if args.trace_cache else TraceCache()
    results = [
        profile_run(spec, scalar=args.scalar, trace_cache=cache)
        for _ in range(args.repeat)
    ]
    best = min(results, key=lambda r: r.wall_ns)
    mode = "scalar" if args.scalar else "fast"
    if args.repeat > 1:
        walls = ", ".join(f"{r.wall_ns / 1e6:.1f}" for r in results)
        print(f"wall_ms per repeat ({mode}): {walls}  (best shown)", file=out)
    print(
        f"{args.workload}/{args.paradigm} [{mode}]: "
        f"{best.wall_ns / 1e6:.1f} ms wall, "
        f"{best.profiler.total_ns() / 1e6:.1f} ms instrumented",
        file=out,
    )
    print(best.profiler.report(), file=out)
    print(f"metrics fingerprint: {best.fingerprint}", file=out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(best.as_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}", file=out)
    return 0


def cmd_goodput(args, out) -> int:
    rows = [
        [p.size, p.pcie, p.nvlink, "measured" if p.measured else "projected"]
        for p in goodput_curve()
    ]
    print(
        format_table(
            "goodput vs transfer size (paper Fig. 2)",
            ["size_B", "pcie", "nvlink", "regime"],
            rows,
        ),
        file=out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FinePack (HPCA 2023) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show workloads and paradigms").set_defaults(
        fn=cmd_list
    )

    p = sub.add_parser("run", help="run one workload under one paradigm")
    p.add_argument("workload", nargs="?", default=None)
    p.add_argument(
        "paradigm", nargs="?", default="finepack", choices=sorted(PARADIGMS)
    )
    p.add_argument(
        "--workload",
        dest="workload_flag",
        default=None,
        help="workload name (alternative to the positional form)",
    )
    p.add_argument(
        "--timeline", action="store_true", help="render the iteration timeline"
    )
    _add_shape_args(p)
    _add_fabric_args(p)
    _add_topology_args(p)
    _add_trace_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="sweep a design parameter")
    p.add_argument(
        "workload",
        help="workload name, comma-separated list, or the 'collectives' "
        "family alias",
    )
    p.add_argument("param", choices=("subheader", "generation", "paradigm"))
    p.add_argument(
        "--paradigm",
        default="finepack",
        choices=sorted(PARADIGMS),
        help="paradigm for generation sweeps (default finepack)",
    )
    p.add_argument(
        "--paradigms",
        nargs="+",
        default=["p2p", "dma", "finepack"],
        choices=sorted(PARADIGMS),
        help="paradigm ladder for paradigm sweeps (default p2p dma "
        "finepack)",
    )
    p.add_argument(
        "--refine-top",
        type=int,
        default=0,
        metavar="K",
        help="after an analytical sweep, re-run the K fastest points "
        "per workload (plus the baseline) at DES fidelity and report "
        "the confirmed numbers; rows show 'des (refined)' (requires "
        "--fidelity analytical)",
    )
    _add_shape_args(p)
    _add_fabric_args(p)
    _add_topology_args(p)
    _add_trace_args(p)
    _add_parallel_args(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("compare", help="compare paradigms on one workload")
    p.add_argument("workload")
    p.add_argument(
        "--paradigms",
        nargs="+",
        default=["p2p", "dma", "finepack", "infinite"],
        choices=sorted(PARADIGMS),
    )
    _add_shape_args(p)
    _add_fabric_args(p)
    _add_topology_args(p)
    _add_parallel_args(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("trace", help="generate and save a workload trace")
    p.add_argument("workload")
    p.add_argument("output")
    _add_shape_args(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("replay", help="replay a saved trace")
    p.add_argument("trace")
    p.add_argument("paradigm", choices=sorted(PARADIGMS))
    _add_fabric_args(p)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("validate", help="run the invariant battery")
    p.add_argument("workload")
    p.add_argument("paradigm", choices=sorted(PARADIGMS))
    _add_shape_args(p)
    _add_fabric_args(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "chaos", help="sweep fault-scenario intensity across paradigms"
    )
    p.add_argument("workload", nargs="?", default=None)
    p.add_argument(
        "--scenario",
        default="flaky-retimer",
        help="preset name or scenario JSON file (default flaky-retimer; "
        "see --list)",
    )
    p.add_argument(
        "--list", action="store_true", help="list preset scenarios and exit"
    )
    p.add_argument(
        "--paradigms",
        nargs="+",
        default=["p2p", "dma", "finepack"],
        choices=sorted(PARADIGMS),
    )
    p.add_argument(
        "--intensities",
        nargs="+",
        type=float,
        default=[0.0, 0.25, 0.5, 0.75, 1.0],
        help="fault intensity ladder (default 0 0.25 0.5 0.75 1)",
    )
    p.add_argument(
        "--topology",
        default=None,
        choices=(
            "single_switch",
            "two_level",
            "fully_connected",
            "fat_tree",
            "switched_mesh",
        ),
        help="override the scenario's topology hint",
    )
    p.add_argument(
        "--json", default=None, metavar="FILE", help="write the sweep as JSON"
    )
    _add_shape_args(p)
    _add_fabric_args(p)
    _add_trace_args(p)
    _add_parallel_args(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "profile", help="attribute one run's wall clock to simulator stages"
    )
    p.add_argument("workload")
    p.add_argument(
        "paradigm", nargs="?", default="finepack", choices=sorted(PARADIGMS)
    )
    p.add_argument(
        "--scalar",
        action="store_true",
        help="disable the vectorized fast paths (profile the scalar "
        "reference implementation)",
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="profile N times and report the fastest (default 1)",
    )
    p.add_argument(
        "--json", default=None, metavar="FILE", help="write the report as JSON"
    )
    p.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="directory for the workload-trace cache (default: in-memory "
        "for this invocation)",
    )
    _add_shape_args(p)
    _add_fabric_args(p)
    _add_topology_args(p)
    p.set_defaults(fn=cmd_profile)

    sub.add_parser("goodput", help="print the Fig. 2 goodput table").set_defaults(
        fn=cmd_goodput
    )
    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args, out if out is not None else sys.stdout)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
