"""The event path against the batch transport, for every paradigm.

Both transports read the same input: each phase's egress as one
:class:`~repro.perf.batch.MessageBatch` -- a FinePack phase template,
the passthrough engine's columns, or a message list (DMA, write
combining, GPS) through ``MessageBatch.from_messages``.  The batch
transport times the rows in arrays; the event path
(``MultiGPUSystem._transmit_events``, taken whenever a link needs
per-message hooks) routes and drains them one at a time.  With link
eligibility patched off, the same specs must give the same
fingerprints both ways.
"""

from __future__ import annotations

import pytest

from repro.core.egress import FinePackEgress, PassthroughEgress
from repro.perf.harness import fingerprint_metrics
from repro.run import RunContext, RunSpec, TraceCache
from repro.sim import system

SPECS = {
    "jacobi": dict(workload="jacobi"),
    "sssp": dict(workload="sssp"),
    "als": dict(workload="als"),
    "allreduce_ring/8gpu": dict(
        workload="allreduce_ring", n_gpus=8, topology="fat_tree"
    ),
}
PARADIGMS = ("p2p", "dma", "dma_sliced", "wc", "gps", "finepack")
#: The engines that batch a whole phase; the other paradigms emit lists.
BATCHING = {"p2p": PassthroughEgress, "finepack": FinePackEgress}


@pytest.fixture(scope="module")
def trace_cache():
    return TraceCache()


def _spy(monkeypatch, engine) -> list[bool]:
    """Record whether each call of ``engine.phase_batch`` answered."""
    answered: list[bool] = []
    entry = engine.phase_batch

    def spy(self, *args):
        out = entry(self, *args)
        answered.append(out is not None)
        return out

    monkeypatch.setattr(engine, "phase_batch", spy)
    return answered


@pytest.mark.parametrize("paradigm", PARADIGMS)
@pytest.mark.parametrize("label", list(SPECS))
def test_event_path_matches_batch_transport(label, paradigm, trace_cache, monkeypatch):
    spec = RunSpec(paradigm=paradigm, seed=7, **SPECS[label])
    engine = BATCHING.get(paradigm)
    answered = _spy(monkeypatch, engine) if engine else []
    batched = fingerprint_metrics(RunContext(spec, trace_cache=trace_cache).run())
    phases = len(answered)

    monkeypatch.setattr(system, "links_eligible", lambda topology: False)
    events = fingerprint_metrics(RunContext(spec, trace_cache=trace_cache).run())
    if engine is not None:
        # Every phase was one batch on both transports.
        assert phases and len(answered) == 2 * phases and all(answered)
    assert events == batched
