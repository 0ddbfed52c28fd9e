"""Byte-identity of the vectorized fast paths (the core perf contract).

Every workload x paradigm cell is run twice -- once in fast mode (the
default, every vectorized path enabled) and once under
:func:`~repro.perf.scalar_reference` (the scalar reference paths) --
and the full :class:`RunMetrics` (including per-link :class:`LinkStats`
and order-sensitive dicts) must fingerprint identically.  "Close enough"
floats are a bug: the fast paths reorder no floating-point reduction
that the scalar code performs.
"""

from __future__ import annotations

import pytest

from repro.core.config import FinePackConfig
from repro.core.egress import FinePackEgress
from repro.core.packetizer import Packetizer
from repro.core.remote_write_queue import QueuePartition
from repro.faults import load_scenario
from repro.interconnect.link import CHAIN_ARRAY_MIN, Link
from repro.interconnect.pcie import PCIE_GEN4, PCIeProtocol
from repro.perf import scalar_reference
from repro.perf.harness import fingerprint_metrics, profile_run
from repro.run import RunContext, RunSpec, TraceCache

#: Small-but-representative parameters so the full grid stays fast.
WORKLOAD_PARAMS = {
    "als": {"n_users": 800, "n_items": 200},
    "ct": {"total_corrections": 3000},
    "diffusion": {"n": 48},
    "eqwp": {"n": 48},
    "hit": {"n": 32, "dram_passes": 2},
    "jacobi": {"n": 256},
    "pagerank": {"n": 4000},
    "sssp": {"n": 4000},
}

PARADIGMS = ("p2p", "dma", "finepack")


def spec_for(workload: str, paradigm: str, **overrides) -> RunSpec:
    fields = {"n_gpus": 2, "iterations": 2, **overrides}
    return RunSpec(
        workload=workload,
        workload_params=WORKLOAD_PARAMS[workload],
        paradigm=paradigm,
        **fields,
    )


def fingerprints(spec: RunSpec) -> tuple[str, str]:
    cache = TraceCache()
    fast = profile_run(spec, scalar=False, trace_cache=cache)
    scalar = profile_run(spec, scalar=True, trace_cache=cache)
    return fast.fingerprint, scalar.fingerprint


#: Cells whose fast pass sends some link at least ``CHAIN_ARRAY_MIN``
#: messages in one call, so the busy-period array chain of
#: ``Link.transmit_batch`` is held to byte identity here, not only the
#: per-message loop.
ARRAY_CHAIN_CELLS = {("als", "p2p"), ("hit", "p2p"), ("sssp", "p2p")}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_PARAMS))
@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_fast_matches_scalar(workload, paradigm, monkeypatch):
    sizes = [0]
    transmit_batch = Link.transmit_batch

    def spy(self, ready, *columns):
        sizes.append(ready.size)
        return transmit_batch(self, ready, *columns)

    monkeypatch.setattr(Link, "transmit_batch", spy)
    fast, scalar = fingerprints(spec_for(workload, paradigm))
    assert fast == scalar
    if (workload, paradigm) in ARRAY_CHAIN_CELLS:
        assert max(sizes) >= CHAIN_ARRAY_MIN


@pytest.mark.parametrize("paradigm", ["p2p", "finepack"])
def test_fast_matches_scalar_with_atomics(paradigm):
    spec = RunSpec(
        workload="pagerank",
        workload_params={"n": 4000, "use_atomics": True},
        paradigm=paradigm,
        n_gpus=2,
        iterations=2,
    )
    fast, scalar = fingerprints(spec)
    assert fast == scalar


@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_fast_matches_scalar_two_level_topology(paradigm):
    # Links appear at multiple hop positions in the tree; the
    # event-ordered transport plan keeps the run on the batch path and
    # must stay byte-identical.
    fast, scalar = fingerprints(
        spec_for("jacobi", paradigm, n_gpus=4, topology="two_level")
    )
    assert fast == scalar


def test_fast_matches_scalar_under_faults():
    # An armed fault injector disqualifies the batch transport; the
    # run (possibly degraded) must still be byte-identical.
    schedule = load_scenario("flaky-retimer")
    spec = spec_for("jacobi", "finepack").with_options(
        scenario=schedule.to_json(indent=None),
        intensity=0.5,
        topology=schedule.topology or "single_switch",
        with_credits=schedule.with_credits,
    )
    cache = TraceCache()
    outcomes = []
    for scalar in (False, True):
        with scalar_reference(scalar):
            outcomes.append(RunContext(spec, trace_cache=cache).execute())
    fast, scalar = outcomes
    assert fast.degraded == scalar.degraded
    assert fast.reasons == scalar.reasons
    assert fingerprint_metrics(fast.metrics) == fingerprint_metrics(
        scalar.metrics
    )


def test_scalar_mode_takes_every_reference_path(monkeypatch):
    # The byte-identity tests above would pass vacuously if a call site
    # ignored the switch and ran fast on both sides.
    def fast_flags():
        config = FinePackConfig()
        return (
            QueuePartition(config, dst=1)._fast_cost,
            Packetizer(config, PCIeProtocol(PCIE_GEN4))._fast,
        )

    with scalar_reference():
        assert fast_flags() == (False, False)
    assert fast_flags() == (True, True)

    calls = []
    # The phase template behind FinePack's columnar entry, phase_batch,
    # which both transports read.
    template = FinePackEgress._template

    def spy(self, *args):
        calls.append(args)
        return template(self, *args)

    monkeypatch.setattr(FinePackEgress, "_template", spy)
    spec = spec_for("jacobi", "finepack")
    cache = TraceCache()
    # Scalar: per-op egress hooks, event-driven transport.
    scalar = profile_run(spec, scalar=True, trace_cache=cache)
    assert not calls
    assert scalar.profiler.stage_ns().get("engine_dispatch", 0) > 0
    # Fast: columnar phase entry, batch transport (no event loop).
    fast = profile_run(spec, scalar=False, trace_cache=cache)
    assert calls
    assert fast.profiler.stage_ns().get("engine_dispatch", 0) == 0


def test_fingerprint_is_order_sensitive():
    assert fingerprint_metrics({"a": 1, "b": 2}) != fingerprint_metrics(
        {"b": 2, "a": 1}
    )
    assert fingerprint_metrics(1.0) != fingerprint_metrics(1)
    assert fingerprint_metrics(True) != fingerprint_metrics(1)
