"""The grouped classifier against the per-pair oracle.

:func:`repro.sim.metrics.classify_egress` classifies consecutive source
phases in one keyed, vectorized pass.  For random egress on 2 to 16
GPUs -- batches and message lists, single ranges and range arrays,
overlapping, adjacent and repeated ranges, atomics, aggregated DMA
staging, empty or missing reads and dropped messages -- it must give
the same :class:`ByteBreakdown` as :func:`classify_per_pair`, including
when the groups close early and split the sources between them.  The
classifier reads what the system hands it: each phase's arrived
messages as one batch, message lists through
:meth:`MessageBatch.from_messages`; the oracle reads the lists and the
dropped messages' ids.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.compute import KernelWork
from repro.interconnect.message import MessageKind, WireMessage
from repro.perf.batch import MessageBatch
from repro.sim import metrics
from repro.sim.metrics import classify_egress
from repro.trace.intervals import IntervalSet
from repro.trace.stream import DMATransfer, KernelPhase, RemoteStoreBatch
from tests.sim.classify_oracle import classify_per_pair

#: Addresses fall in [0, SPAN) so ranges, footprints and reads overlap.
SPAN = 2048


def _phase(rng, gpu: int, n_gpus: int) -> KernelPhase:
    peers = np.array([g for g in range(n_gpus) if g != gpu])
    n = int(rng.integers(0, 40))
    stores = RemoteStoreBatch(
        rng.integers(0, SPAN, n), rng.integers(1, 65, n), rng.choice(peers, n)
    )
    k = int(rng.integers(0, 6)) if rng.random() < 0.5 else 0
    atomics = RemoteStoreBatch(
        rng.integers(0, SPAN, k), rng.choice([4, 8], k), rng.choice(peers, k)
    )
    dma = [
        DMATransfer(
            int(rng.choice(peers)),
            int(rng.integers(0, SPAN)),
            int(rng.integers(1, 400)),
            bool(rng.random() < 0.5),
        )
        for _ in range(int(rng.integers(0, 4)))
    ]
    r = int(rng.integers(0, 8))
    reads = IntervalSet.from_ranges(rng.integers(0, SPAN, r), rng.integers(1, 300, r))
    return KernelPhase(
        gpu=gpu,
        work=KernelWork(0.0, 0.0),
        stores=stores,
        atomics=atomics,
        reads=reads,
        dma=dma,
    )


def _delivered(rng, phase: KernelPhase, n_gpus: int):
    """``(dsts, starts, lengths)``: some of the phase's own stores,
    atomics and DMA regions, random spans, repeats and adjacent runs."""
    peers = [g for g in range(n_gpus) if g != phase.gpu]
    parts = []
    for batch in (phase.stores, phase.atomics):
        keep = rng.random(batch.count) < 0.7
        parts.append((batch.dsts[keep], batch.addrs[keep], batch.sizes[keep]))
    for tr in phase.dma:
        if rng.random() < 0.7:
            parts.append(([tr.dst], [tr.dst_addr], [tr.nbytes]))
    m = int(rng.integers(0, 10))
    parts.append(
        (rng.choice(peers, m), rng.integers(0, SPAN, m), rng.integers(1, 200, m))
    )
    dsts, starts, lengths = (
        np.concatenate([np.asarray(p[i], dtype=np.int64) for p in parts])
        for i in range(3)
    )
    if dsts.size:
        # Repeats, and ranges starting where another ends.
        rep = rng.integers(0, dsts.size, int(rng.integers(0, 4)))
        adj = rng.integers(0, dsts.size, int(rng.integers(0, 4)))
        dsts = np.concatenate((dsts, dsts[rep], dsts[adj]))
        starts = np.concatenate((starts, starts[rep], starts[adj] + lengths[adj]))
        lengths = np.concatenate((lengths, lengths[rep], rng.integers(1, 50, adj.size)))
    order = rng.permutation(dsts.size)
    return dsts[order], starts[order], lengths[order]


def _egress(rng, phase: KernelPhase, n_gpus: int, dropped: set):
    """One phase's egress as a MessageBatch or a WireMessage list."""
    dsts, starts, lengths = _delivered(rng, phase, n_gpus)
    overhead = rng.integers(0, 40, dsts.size)
    if rng.random() < 0.3:
        return MessageBatch(
            src=phase.gpu,
            dst=dsts,
            payload=lengths.copy(),
            overhead=overhead,
            kind=np.zeros(dsts.size, dtype=np.uint8),
            issue=np.zeros(dsts.size),
            packed=np.ones(dsts.size, dtype=np.int64),
            starts=starts,
            lengths=lengths,
        )
    messages = []
    i = 0
    while i < dsts.size:
        dst = int(dsts[i])
        # A run of same-destination ranges becomes one message.
        j = i + 1
        while j < dsts.size and dsts[j] == dst and rng.random() < 0.6:
            j += 1
        if j - i == 1 and rng.random() < 0.5:
            meta = {"range1": (int(starts[i]), int(lengths[i]))}
        else:
            meta = {"ranges": (starts[i:j], lengths[i:j])}
        messages.append(
            WireMessage(
                src=phase.gpu,
                dst=dst,
                payload_bytes=int(lengths[i:j].sum()),
                overhead_bytes=int(overhead[i:j].sum()),
                kind=MessageKind.FINEPACK,
                meta=meta,
            )
        )
        i = j
    if messages and rng.random() < 0.3:
        # A range-less message, which only adds overhead.
        messages.append(
            WireMessage(
                src=phase.gpu,
                dst=int(rng.choice([g for g in range(n_gpus) if g != phase.gpu])),
                payload_bytes=0,
                overhead_bytes=7,
                meta={"ranges": (np.empty(0, dtype=np.int64),) * 2},
            )
        )
    for m in messages:
        if rng.random() < 0.1:
            dropped.add(id(m))
    return messages


def _arrived(src: int, item, dropped: set) -> MessageBatch:
    """One phase's arrived egress as the classifier's batch."""
    if isinstance(item, MessageBatch):
        return item
    return MessageBatch.from_messages(src, [m for m in item if id(m) not in dropped])


def _iteration(seed: int, n_gpus: int):
    rng = np.random.default_rng(seed)
    phases = [_phase(rng, g, n_gpus) for g in range(n_gpus)]
    dropped: set[int] = set()
    outputs = [_egress(rng, p, n_gpus, dropped) for p in phases]
    batches = [_arrived(p.gpu, item, dropped) for p, item in zip(phases, outputs)]
    if rng.random() < 0.3:
        order = rng.permutation(n_gpus)
        outputs = [outputs[i] for i in order]
        batches = [batches[i] for i in order]
    reads: dict[int, IntervalSet] = {}
    for p in phases:
        u = rng.random()
        if u < 0.7:
            reads[p.gpu] = p.reads
        elif u < 0.85:
            reads[p.gpu] = IntervalSet.empty()
    return outputs, batches, phases, reads, dropped


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_gpus=st.integers(2, 16),
    budget=st.sampled_from([1, 30, 200, metrics.GROUP_BUDGET]),
)
def test_grouped_matches_per_pair(seed, n_gpus, budget):
    outputs, batches, phases, reads, dropped = _iteration(seed, n_gpus)
    want = classify_per_pair(outputs, phases, reads, dropped)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "GROUP_BUDGET", budget)
        assert classify_egress(batches, phases, reads) == want


def _store_phase(gpu: int, addr: int) -> KernelPhase:
    return KernelPhase(
        gpu=gpu,
        work=KernelWork(0.0, 0.0),
        stores=RemoteStoreBatch([addr], [8], [1 - gpu]),
    )


def _store_batch(src: int, addr: int) -> MessageBatch:
    message = WireMessage(
        src=src, dst=1 - src, payload_bytes=8, overhead_bytes=0,
        meta={"range1": (addr, 8)},
    )
    return MessageBatch.from_messages(src, [message])


def test_key_overflow_raises():
    """Two GPUs need a 2-bit pair code, so an address span of 2**62 B
    leaves no room in int64."""
    top = 2**62
    phases = [_store_phase(0, 0), _store_phase(1, top)]
    outputs = [_store_batch(0, 0), _store_batch(1, top)]
    with pytest.raises(ValueError, match="overflow int64"):
        classify_egress(outputs, phases, {})


def test_source_split_across_passes_raises(monkeypatch):
    """A source whose messages straddle two passes cannot be classified
    pair by pair, so it is refused rather than double counted."""
    monkeypatch.setattr(metrics, "GROUP_BUDGET", 1)
    phases = [_store_phase(0, 0), _store_phase(1, 64)]
    outputs = [_store_batch(0, 0), _store_batch(0, 0)]
    with pytest.raises(ValueError, match="more than one classification pass"):
        classify_egress(outputs, phases, {})
