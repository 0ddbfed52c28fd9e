"""FinePack's phase templates on the event path against the batch
transport.

The batch transport takes each FinePack phase template as one
:class:`~repro.perf.batch.MessageBatch`; the event path
(``MultiGPUSystem._transmit_events``, taken whenever a link needs
per-message hooks) takes the same templates as ``WireMessage`` lists,
built once per template and re-stamped on every replay.  With link
eligibility patched off, the same specs must give the same
fingerprints both ways.  The tracer differential never reaches these
lists: an attached tracer turns the memo off.
"""

from __future__ import annotations

import pytest

from repro.core.egress import FinePackEgress
from repro.perf.harness import fingerprint_metrics
from repro.run import RunContext, RunSpec, TraceCache
from repro.sim import system

SPECS = {
    "jacobi": RunSpec(workload="jacobi", paradigm="finepack", seed=7),
    "sssp": RunSpec(workload="sssp", paradigm="finepack", seed=7),
    "als": RunSpec(workload="als", paradigm="finepack", seed=7),
    "allreduce_ring/8gpu": RunSpec(
        workload="allreduce_ring",
        paradigm="finepack",
        n_gpus=8,
        topology="fat_tree",
        seed=7,
    ),
}


def _spy(monkeypatch, name: str) -> list[bool]:
    """Record whether each call of the engine entry ``name`` answered."""
    answered: list[bool] = []
    entry = getattr(FinePackEgress, name)

    def spy(self, *args):
        out = entry(self, *args)
        answered.append(out is not None)
        return out

    monkeypatch.setattr(FinePackEgress, name, spy)
    return answered


@pytest.mark.parametrize("label", list(SPECS))
def test_event_path_matches_batch_transport(label, monkeypatch):
    spec = SPECS[label]
    cache = TraceCache()
    batches = _spy(monkeypatch, "phase_batch")
    batched = fingerprint_metrics(RunContext(spec, trace_cache=cache).run())
    assert batches and all(batches)

    monkeypatch.setattr(system, "links_eligible", lambda topology: False)
    views = _spy(monkeypatch, "phase_ops")
    events = fingerprint_metrics(RunContext(spec, trace_cache=cache).run())
    # Every phase's messages came from its template.
    assert len(views) == len(batches) and all(views)
    assert events == batched
