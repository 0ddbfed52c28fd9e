"""Fault injection and resilience: scripted link faults, graceful
degradation, and chaos sweeps.

The subsystem splits into policy and mechanism:

* :class:`FaultSchedule` (:mod:`repro.faults.schedule`) -- declarative,
  validated scenarios of typed, time-windowed fault events, parsed from
  dicts/JSON: :class:`LinkDegrade`, :class:`LinkFlap`,
  :class:`LinkFail`, :class:`CrcBurst`, :class:`DrainSlowdown`,
  :class:`CreditLeak`.
* :class:`FaultInjector` (:mod:`repro.faults.injector`) -- compiles a
  schedule onto a live topology's links and credit pools as runtime
  :mod:`repro.faults.state` objects the interconnect consults.
* Resilience -- faulted links retransmit with exponential backoff,
  topologies reroute around dead links, and runs that lose all paths
  raise :class:`DegradedRunError` carrying partial metrics instead of
  hanging.
* :func:`chaos_sweep` (:mod:`repro.faults.chaos`) -- sweeps a scenario's
  intensity across paradigms and reports the degradation curve (the
  ``repro chaos`` CLI).

Usage::

    from repro.faults import load_scenario
    from repro.run import RunContext, RunSpec

    schedule = load_scenario("flaky-retimer")
    spec = RunSpec(workload="jacobi", with_credits=True,
                   scenario=schedule.to_json())
    metrics = RunContext(spec).run()   # may raise DegradedRunError
    print(metrics.faults.as_dict())

``registry.scenarios.names()`` lists the shipped presets.

See ``docs/faults.md`` for the scenario schema and semantics.
"""

from .chaos import ChaosPoint, ChaosResult, chaos_sweep, format_chaos_table
from .errors import DegradedRunError, ScenarioError
from .injector import FaultInjector
from .scenarios import load_scenario
from .schedule import (
    FAULT_TYPES,
    CrcBurst,
    CreditLeak,
    DrainSlowdown,
    FaultEvent,
    FaultSchedule,
    LinkDegrade,
    LinkFail,
    LinkFlap,
)
from .state import (
    FOREVER,
    FaultError,
    LinkDownError,
    LinkFaultState,
    PoolFaultState,
    RouteBlockedError,
    Window,
)

__all__ = [
    "ChaosPoint",
    "ChaosResult",
    "chaos_sweep",
    "format_chaos_table",
    "DegradedRunError",
    "ScenarioError",
    "FaultInjector",
    "load_scenario",
    "FAULT_TYPES",
    "CrcBurst",
    "CreditLeak",
    "DrainSlowdown",
    "FaultEvent",
    "FaultSchedule",
    "LinkDegrade",
    "LinkFail",
    "LinkFlap",
    "FOREVER",
    "FaultError",
    "LinkDownError",
    "LinkFaultState",
    "PoolFaultState",
    "RouteBlockedError",
    "Window",
]
