"""Byte-identity of the vectorized fast paths (the core perf contract).

Every workload x paradigm cell is run twice -- once with every fast
path enabled (:meth:`PerfConfig.all_on`, the default) and once with
the scalar reference paths (:meth:`PerfConfig.all_off`) -- and the
full :class:`RunMetrics` (including per-link :class:`LinkStats` and
order-sensitive dicts) must fingerprint identically.  "Close enough"
floats are a bug: the fast paths reorder no floating-point reduction
that the scalar code performs.
"""

from __future__ import annotations

import pytest

from repro.faults import load_scenario
from repro.perf import PerfConfig, perf_overrides
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


@pytest.mark.parametrize("workload", sorted(WORKLOAD_PARAMS))
@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_fast_matches_scalar(workload, paradigm):
    fast, scalar = fingerprints(spec_for(workload, paradigm))
    assert fast == scalar


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
    for config in (PerfConfig.all_on(), PerfConfig.all_off()):
        with perf_overrides(config):
            outcomes.append(RunContext(spec, trace_cache=cache).execute())
    fast, scalar = outcomes
    assert fast.degraded == scalar.degraded
    assert fast.reasons == scalar.reasons
    assert fingerprint_metrics(fast.metrics) == fingerprint_metrics(
        scalar.metrics
    )


def test_fingerprint_is_order_sensitive():
    assert fingerprint_metrics({"a": 1, "b": 2}) != fingerprint_metrics(
        {"b": 2, "a": 1}
    )
    assert fingerprint_metrics(1.0) != fingerprint_metrics(1)
    assert fingerprint_metrics(True) != fingerprint_metrics(1)
