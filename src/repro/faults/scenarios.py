"""Shipped chaos scenarios.

Each scenario is a plain dict in the scenario JSON schema (see
:mod:`repro.faults.schedule`), so ``repro chaos jacobi --scenario
flaky-retimer`` and a user-supplied JSON file go through exactly the
same parser.  Timings assume the default experiment scale (a few
hundred microseconds to a few milliseconds of simulated time); windows
deliberately land inside the first iterations so every workload
observes them.

The presets are registered into :data:`repro.registry.scenarios`
(``registry.scenarios.names()`` lists them; downstream code adds its
own with ``registry.scenarios.add(name, dict)``).  ``load_scenario``
falls back to treating its argument as a file path, so presets and
files are interchangeable.
"""

from __future__ import annotations

import os

from ..registry import RegistryError
from ..registry import scenarios as _registry
from .errors import ScenarioError
from .schedule import FaultSchedule

#: The presets (the JSON schema, as Python literals), registered under
#: their ``name`` below.
_PRESETS: tuple[dict, ...] = (
    # PCIe lane retraining: one GPU's uplink renegotiates x16 -> x4 for
    # most of the run, dropping to x16/16 where the windows overlap.
    # (Timings target the default experiment scale: a 3-iteration run
    # lasts ~130-170 us with fabric traffic from ~0 to ~160 us.)
    {
        "name": "lane-retraining",
        "description": "gpu0 uplink retrains to quarter width mid-run",
        "faults": [
            {"type": "link_degrade", "link": "gpu0->*",
             "start_ns": 10_000.0, "end_ns": 150_000.0, "factor": 0.25},
            {"type": "link_degrade", "link": "gpu0->*",
             "start_ns": 50_000.0, "end_ns": 120_000.0, "factor": 0.25},
        ],
    },
    # A flapping retimer: repeated short outages plus a CRC error burst
    # on the same lane bundle; traffic rides through on retransmits.
    {
        "name": "flaky-retimer",
        "description": "gpu0 uplink flaps twice and suffers CRC bursts",
        "faults": [
            {"type": "link_flap", "link": "gpu0->*",
             "start_ns": 30_000.0, "end_ns": 55_000.0},
            {"type": "link_flap", "link": "gpu0->*",
             "start_ns": 90_000.0, "end_ns": 110_000.0},
            {"type": "crc_burst", "link": "gpu0->*",
             "start_ns": 0.0, "end_ns": 2_000_000.0, "error_rate": 2e-5},
        ],
    },
    # A receiver that cannot keep up: its ingress drain slows to a
    # trickle and part of its buffer leaks away, squeezing credits.
    {
        "name": "slow-drain",
        "description": "gpu1 ingress drains at 1/4 rate with leaked credits",
        "with_credits": True,
        "faults": [
            {"type": "drain_slowdown", "link": "*->gpu1",
             "start_ns": 20_000.0, "end_ns": 1_500_000.0, "factor": 0.25},
            {"type": "credit_leak", "link": "*->gpu1",
             "start_ns": 30_000.0, "end_ns": 1_000_000.0, "leak_bytes": 4096},
        ],
    },
    # A mid-run permanent link failure on a topology with alternate
    # paths: traffic reroutes (store-and-forward through a peer GPU).
    {
        "name": "link-failure",
        "description": "gpu0<->gpu1 dies mid-run; traffic reroutes via peers",
        "topology": "fully_connected",
        "faults": [
            {"type": "link_fail", "link": "gpu0->gpu1", "start_ns": 60_000.0},
            {"type": "link_fail", "link": "gpu1->gpu0", "start_ns": 60_000.0},
        ],
    },
    # A partitioning failure on the paper's single-switch tree: gpu0's
    # only uplink dies, no alternate path exists, and the run degrades
    # cleanly (DegradedRunError with partial metrics).
    {
        "name": "partition",
        "description": "gpu0's only uplink dies; the run degrades cleanly",
        "topology": "single_switch",
        "faults": [
            {"type": "link_fail", "link": "gpu0->sw0", "start_ns": 40_000.0},
        ],
    },
)

for _preset in _PRESETS:
    _registry.add(_preset["name"], _preset)


def load_scenario(name_or_path: str) -> FaultSchedule:
    """Load a preset by registry name, or a scenario JSON file by path.

    Unknown names raise :class:`ScenarioError` carrying the registry's
    did-you-mean suggestions.
    """
    preset = _registry.get(name_or_path)
    if preset is not None:
        return FaultSchedule.from_dict(preset)
    if os.path.exists(name_or_path):
        return FaultSchedule.from_file(name_or_path)
    try:
        _registry.resolve(name_or_path)
    except RegistryError as exc:
        raise ScenarioError(f"{exc} -- and not a file") from None
    raise AssertionError("unreachable")  # pragma: no cover
