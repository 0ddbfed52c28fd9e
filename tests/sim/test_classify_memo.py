"""The byte ledger's written-and-read memo is keyed by content.

:func:`repro.sim.metrics.classify_egress` intersects the delivered
ranges with each (producer phase, destination) pair's written-and-read
set, memoized under ``(KernelPhase.digest, dst, reads digest)``.  A key
that missed part of what the set depends on would let one copy's set
answer for another's, so these tests classify a trace and then copies
with a single edit -- a store, an atomic, a DMA transfer's
``aggregated`` flag, or the consumer's reads -- in one process, each
against the per-pair oracle.  Every edit moves the answer, and the
delivered bytes stay fixed, so only a correct set can match.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analytical.stats import clear_memo
from repro.gpu.compute import KernelWork
from repro.interconnect.message import KIND_CODES, MessageKind, WireMessage
from repro.perf.batch import MessageBatch
from repro.run import RunContext, RunSpec, TraceCache
from repro.sim import metrics
from repro.sim.metrics import classify_egress
from repro.trace.intervals import IntervalSet
from repro.trace.stream import DMATransfer, KernelPhase, RemoteStoreBatch
from tests.sim.classify_oracle import classify_per_pair

N_GPUS = 3
#: Every pair delivers [0, SPAN) in two ranges a message.
SPAN = 4096


def _phase(gpu: int) -> KernelPhase:
    peers = [g for g in range(N_GPUS) if g != gpu]
    k = np.arange(16)
    return KernelPhase(
        gpu=gpu,
        work=KernelWork(0.0, 0.0),
        stores=RemoteStoreBatch(
            np.tile(k * 128 + 16 * gpu, 2), np.full(32, 16), np.repeat(peers, 16)
        ),
        atomics=RemoteStoreBatch(
            2048 + 8 * np.arange(4), np.full(4, 8), np.repeat(peers, 2)
        ),
        # Reads of 192 B every 256 B.
        reads=IntervalSet.from_ranges(k * 256, np.full(16, 192)),
        dma=[
            DMATransfer(peers[0], 2560, 512, aggregated=False),
            DMATransfer(peers[1], 2560, 512, aggregated=True),
        ],
    )


def _outputs():
    """Fixed deliveries: a two-range batch from GPU 0, message lists
    (one-range and two-range) from the others."""
    half = SPAN // 2
    outputs = [
        MessageBatch(
            src=0,
            dst=np.array([1, 2]),
            payload=np.full(2, SPAN),
            overhead=np.full(2, 24),
            kind=np.full(2, KIND_CODES[MessageKind.FINEPACK], dtype=np.uint8),
            issue=np.zeros(2),
            packed=np.ones(2, dtype=np.int64),
            starts=np.array([0, half, 0, half]),
            lengths=np.full(4, half),
            counts=np.array([2, 2]),
        )
    ]
    for src in range(1, N_GPUS):
        msgs = []
        for dst in range(N_GPUS):
            if dst == src:
                continue
            msgs.append(
                WireMessage(src, dst, half, 24, meta={"range1": (0, half)})
            )
            msgs.append(
                WireMessage(
                    src,
                    dst,
                    half,
                    24,
                    kind=MessageKind.FINEPACK,
                    meta={
                        "ranges": (
                            np.array([half, half + half // 2]),
                            np.full(2, half // 2),
                        )
                    },
                )
            )
        outputs.append(msgs)
    return outputs


def _edits(phases):
    """``(name, phases, consumer reads)`` copies with one edit each."""
    p0, p1 = phases[0], phases[1]
    stores = p0.stores
    moved = stores.addrs.copy()
    moved[0] += 200  # [0, 16) read -> [200, 216) unread
    atomics = p0.atomics
    moved_atomic = atomics.addrs.copy()
    moved_atomic[0] += 200  # into the gap after a read interval
    reads = p1.reads
    yield "stores", [
        replace(p0, stores=RemoteStoreBatch(moved, stores.sizes, stores.dsts)),
        *phases[1:],
    ], None
    yield "atomics", [
        replace(
            p0, atomics=RemoteStoreBatch(moved_atomic, atomics.sizes, atomics.dsts)
        ),
        *phases[1:],
    ], None
    yield "aggregated", [
        replace(p0, dma=[replace(p0.dma[0], aggregated=True), p0.dma[1]]),
        *phases[1:],
    ], None
    yield "reads", phases, {
        p.gpu: p.reads for p in phases
    } | {1: IntervalSet(reads.starts[1:], reads.ends[1:])}


def _batches(outputs):
    """The classifier's input: message lists as batches."""
    return [
        item if isinstance(item, MessageBatch)
        else MessageBatch.from_messages(src, item)
        for src, item in enumerate(outputs)
    ]


def test_every_edit_misses_the_memo():
    clear_memo()
    phases = [_phase(g) for g in range(N_GPUS)]
    reads = {p.gpu: p.reads for p in phases}
    outputs = _outputs()
    batches = _batches(outputs)
    base = classify_per_pair(outputs, phases, reads)
    assert classify_egress(batches, phases, reads) == base
    assert metrics._written_read.sets
    for name, edited, edited_reads in _edits(phases):
        edited_reads = edited_reads or {p.gpu: p.reads for p in edited}
        want = classify_per_pair(outputs, edited, edited_reads)
        assert want != base, name
        assert classify_egress(batches, edited, edited_reads) == want, name
        # And the original still answers from its own entries.
        assert classify_egress(batches, phases, reads) == base, name


def test_clear_memo_drops_the_written_and_read_sets():
    phases = [_phase(g) for g in range(N_GPUS)]
    classify_egress(_batches(_outputs()), phases, {p.gpu: p.reads for p in phases})
    assert metrics._written_read.sets
    clear_memo()
    assert not metrics._written_read.sets
    assert metrics._written_read.nbytes == 0


def test_memo_drops_its_oldest_sets_past_its_budget(monkeypatch):
    # Room for three sets of this trace: each counts its arrays plus the
    # fixed allowance.
    memo = metrics._WrittenRead(budget=3 * (metrics._WrittenRead.ENTRY_BYTES + 512))
    monkeypatch.setattr(metrics, "_written_read", memo)
    phases = [_phase(g) for g in range(N_GPUS)]
    reads = {p.gpu: p.reads for p in phases}
    classify_egress(_batches(_outputs()), phases, reads)
    assert 1 <= len(memo.sets) <= 3
    assert memo.nbytes == sum(map(memo._cost, memo.sets.values()))
    assert memo.nbytes <= memo.budget
    # Evicted sets are recomputed, not lost.
    assert classify_egress(_batches(_outputs()), phases, reads) == classify_per_pair(
        _outputs(), phases, reads
    )


def test_the_analytical_tier_classifies_against_the_same_sets():
    # A prediction computes each pair's written-and-read set through the
    # memo, so the DES run of the same trace that follows finds them.
    clear_memo()
    cache = TraceCache()
    spec = RunSpec(workload="jacobi", paradigm="p2p", n_gpus=4, iterations=2)
    RunContext(replace(spec, fidelity="analytical"), trace_cache=cache).run()
    predicted = dict(metrics._written_read.sets)
    assert predicted
    RunContext(spec, trace_cache=cache).run()
    assert metrics._written_read.sets == predicted


@pytest.mark.parametrize("seed", range(5))
def test_multi_range_batches_match_the_oracle(seed):
    # Batches whose messages carry several ranges, or none.
    rng = np.random.default_rng(seed)
    phases = [_phase(g) for g in range(N_GPUS)]
    reads = {p.gpu: p.reads for p in phases}
    outputs = []
    for p in phases:
        peers = np.array([g for g in range(N_GPUS) if g != p.gpu])
        n = int(rng.integers(1, 6))
        counts = rng.integers(0, 4, n)
        starts = rng.integers(0, SPAN, int(counts.sum()))
        lengths = rng.integers(1, 300, starts.size)
        ends = np.cumsum(counts)
        payload = np.array(
            [int(lengths[e - c : e].sum()) for e, c in zip(ends, counts)]
        )
        outputs.append(
            MessageBatch(
                src=p.gpu,
                dst=rng.choice(peers, n),
                payload=payload,
                overhead=rng.integers(0, 40, n),
                kind=np.full(n, KIND_CODES[MessageKind.FINEPACK], dtype=np.uint8),
                issue=np.zeros(n),
                packed=np.ones(n, dtype=np.int64),
                starts=starts,
                lengths=lengths,
                counts=counts,
            )
        )
    assert classify_egress(outputs, phases, reads) == classify_per_pair(
        outputs, phases, reads
    )
