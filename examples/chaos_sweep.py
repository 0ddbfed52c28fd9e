#!/usr/bin/env python3
"""Chaos sweep: how much of FinePack's advantage survives a broken fabric?

Sweeps a fault scenario's intensity from 0 (clean fabric) to 1 (the
scenario verbatim) across the communication paradigms and prints the
degradation curve, then demonstrates graceful degradation: a permanent
link failure with no alternate path raises ``DegradedRunError``
carrying the partial metrics instead of hanging the simulation.

    python examples/chaos_sweep.py [scenario]

where ``scenario`` is a preset name (see ``python -m repro chaos
--list``) or a scenario JSON file (default: flaky-retimer).
"""

import sys

from repro import registry
from repro.faults import (
    DegradedRunError,
    chaos_sweep,
    format_chaos_table,
    load_scenario,
)
from repro.run import RunContext, RunSpec
from repro.workloads import JacobiWorkload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "flaky-retimer"
    schedule = load_scenario(name)
    print(f"Sweeping '{schedule.name}' ({schedule.description or 'no description'})")
    print(f"Presets available: {', '.join(registry.scenarios.names())}\n")

    # The degradation curve: every paradigm, five intensity rungs.
    base = RunSpec.for_workload(JacobiWorkload(), n_gpus=4, iterations=3)
    result = chaos_sweep(base, schedule)
    print(format_chaos_table(result))

    for point in result.points:
        if point.degraded:
            print(f"\n  DEGRADED at intensity {point.intensity:g} "
                  f"({point.paradigm}): {point.reasons[0]}")

    # Graceful degradation, driven by hand: partition the topology and
    # catch the partial metrics.
    print("\nPartitioning gpu0 off the switch mid-run ...")
    partition = base.with_options(
        seed=0,
        topology="single_switch",
        scenario=load_scenario("partition").to_json(),
    )
    try:
        RunContext(partition).run()
        raise AssertionError("partition scenario should degrade the run")
    except DegradedRunError as err:
        m = err.metrics
        print(f"  {err}")
        print(f"  completed iterations: {len(m.iteration_times_ns)}, "
              f"dropped {m.faults.dropped_messages} messages "
              f"({m.faults.dropped_bytes} B); partial metrics survive:")
        print(f"  {m.summary()}")


if __name__ == "__main__":
    main()
