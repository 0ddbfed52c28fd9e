"""Committed fingerprints of runs only the event path takes.

Fault scenarios and flow-control credits make links stateful, so
``MultiGPUSystem`` carries these runs through ``_transmit_events``,
never the batch transport; no differential partner covers them, and a
degraded run's partial metrics appear in no other committed number.
The table below pins ``fingerprint_metrics`` of jacobi (4 GPUs, 2
iterations, seed 7) under every store and DMA paradigm, each under the
shipped ``partition`` scenario (which degrades: the pin is
``DegradedRunError.metrics``), under ``flaky-retimer`` and with
credits, plus sssp/finepack under ``partition``, which drops 840
messages, many of them rows of FinePack phase templates.

Any change to the event path's input format must leave this table as
it is.
"""

from __future__ import annotations

import pytest

from repro.faults.errors import DegradedRunError
from repro.faults.scenarios import load_scenario
from repro.perf.harness import fingerprint_metrics
from repro.run import RunContext, RunSpec, TraceCache
from repro.sim.system import MultiGPUSystem

#: ``workload/paradigm/variant`` -> (degraded, fingerprint).
PINS = {
    "jacobi/p2p/partition": (True, "afb81e797de8d71b603761bae8ae8fd488c470ca464afb03b69b03e9fd85ecba"),
    "jacobi/dma/partition": (True, "52c07df73fb0a03b9184fe6615ebda654b4bb23dcbb84e13268ef644c3967a82"),
    "jacobi/wc/partition": (True, "bb6177c18d5889e8655119378f1428e70a682384ded7eb89f8500426b4364330"),
    "jacobi/gps/partition": (True, "4c5b221b12cf52e6e1d780e21e7037302d46a2f8f1bbc1a409a1a92fed1390f3"),
    "jacobi/finepack/partition": (True, "965de52084c49e7c040afe2d813a4849be7b2d02317567040f463d8f1bb9680b"),
    "jacobi/p2p/flaky-retimer": (False, "c1951778050e0be5799cab68a7eddc096e4b033a3aa49e81f067c69dc76001be"),
    "jacobi/dma/flaky-retimer": (False, "1aa22cc2b1f7a92db796d703f4f068e6be0ec20e6c8471a71d6caa64c59d096a"),
    "jacobi/wc/flaky-retimer": (False, "17cf6c93add2d4f4d05e946769a81d3d5d63b93f7fd3a18ee1d8cc907b9a5106"),
    "jacobi/gps/flaky-retimer": (False, "b4079693f7cf45f5be80780ea0ddf7e6d52d65e7d4cf2c7f382c45a8ee16c36d"),
    "jacobi/finepack/flaky-retimer": (False, "11d83214f3173d34d2e2ca010acc6900aab9a37d25c10e928583ba574b660a68"),
    "jacobi/p2p/credits": (False, "078387961aea065ea21ee1b942ba34300a6ff7c4167513bd030f330121bb4ba9"),
    "jacobi/dma/credits": (False, "d0d21bbdfb56b74d2282c71ecf6f11add5b59dc21a463f7976fafbf9f16b8473"),
    "jacobi/wc/credits": (False, "587d11f109fb1bb17be7001d19e92428c149eee3eca2ae0e9f79824be16c9054"),
    "jacobi/gps/credits": (False, "138739395f653aa4c7ed9cf860ba7e55002b11526d32f91ef94db0f9e821a554"),
    "jacobi/finepack/credits": (False, "7ece0a346547a347e7ca3ee89a4b632a132e31103773859c90794113c06fd09c"),
    "sssp/finepack/partition": (True, "4a2ee281e96efe21184b522c6c54e180eac82d023269749fd7a40716e2e919f6"),
}


@pytest.fixture(scope="module")
def trace_cache():
    return TraceCache()


def _spec(label: str) -> RunSpec:
    workload, paradigm, variant = label.split("/")
    options = {}
    if variant == "credits":
        options["with_credits"] = True
    else:
        options["scenario"] = load_scenario(variant).to_json(indent=None)
    return RunSpec(
        workload=workload,
        paradigm=paradigm,
        n_gpus=4,
        iterations=2,
        seed=7,
        **options,
    )


@pytest.mark.parametrize("label", list(PINS))
def test_event_path_fingerprint_is_pinned(label, trace_cache, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the batch transport ran a stateful-link cell")

    monkeypatch.setattr(MultiGPUSystem, "_transmit_batched", refuse)
    try:
        metrics = RunContext(_spec(label), trace_cache=trace_cache).run()
        degraded = False
    except DegradedRunError as exc:
        metrics, degraded = exc.metrics, True
    assert (degraded, fingerprint_metrics(metrics)) == PINS[label]
