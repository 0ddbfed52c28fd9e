#!/usr/bin/env python3
"""Record a traced run and export it for Chrome/Perfetto.

Attaches a :class:`repro.obs.Tracer` to one simulation, prints the
per-link activity table, and writes two files:

* ``trace.json``  -- Chrome ``trace_event`` format; open it at
  ``chrome://tracing`` or https://ui.perfetto.dev to see kernels,
  barriers, link occupancy, remote-write-queue flushes and counter
  tracks on a common timeline.
* ``trace.jsonl`` -- the native event stream, one JSON object per
  line, for ``jq``/pandas analysis or offline invariant replay.

    python examples/trace_export.py [workload] [paradigm]

(defaults: jacobi under finepack).  The same exports are available from
the CLI as ``python -m repro run jacobi finepack --trace-out trace.json``.
"""

import sys

from repro.analysis import format_link_timeline
from repro.obs import InvariantChecker, Tracer, read_jsonl, write_chrome_trace, write_jsonl
from repro.run import RunContext, RunSpec
from repro.sim.paradigms import PARADIGMS
from repro.workloads import WORKLOADS


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "jacobi"
    paradigm = sys.argv[2] if len(sys.argv) > 2 else "finepack"
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; pick from {sorted(WORKLOADS)}")
    if paradigm not in PARADIGMS:
        raise SystemExit(f"unknown paradigm {paradigm!r}; pick from {sorted(PARADIGMS)}")

    # The tracer records typed events and checks conservation invariants
    # online (byte conservation, link exclusivity, empty queues at
    # barriers); a violation raises InvariantViolation immediately.
    tracer = Tracer()
    spec = RunSpec(
        workload=workload, paradigm=paradigm, n_gpus=4, iterations=2
    )
    metrics = RunContext(spec, tracer=tracer).run()
    print(f"{workload}/{paradigm}: {metrics.total_time_ns / 1e6:.3f} ms, "
          f"{len(tracer.events)} events recorded")
    print(format_link_timeline(tracer))

    write_chrome_trace("trace.json", {f"{workload}/{paradigm}": tracer})
    write_jsonl("trace.jsonl", tracer)
    print("wrote trace.json (chrome://tracing) and trace.jsonl")

    # The JSONL stream round-trips into typed events, so a recorded run
    # can be re-checked offline -- e.g. in CI, against a stream from a
    # modified simulator build.
    checker = InvariantChecker.replay(read_jsonl("trace.jsonl"))
    print(f"offline replay: {checker.events_checked} events, "
          f"{checker.barriers_checked} barriers, all invariants hold")


if __name__ == "__main__":
    main()
