"""Unit tier for FinePack's columnar phase entry (``FinePackEgress.phase_batch``).

The contract: feeding a phase's op columns through ``phase_batch`` --
packed by the columnar phase kernel or replayed from the memo under
the caller's content key -- produces exactly the messages of the
scalar per-op path (``on_store``/``on_atomic``/``on_release``) as a
:class:`MessageBatch`, in the same order and stamped from the same op
slots, differing in nothing but wall-clock cost.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import egress as egress_module
from repro.core.config import FinePackConfig
from repro.core.egress import FinePackEgress
from repro.core.phase_kernel import pack_phase
from repro.gpu.compute import KernelWork
from repro.interconnect.message import KINDS_BY_CODE
from repro.interconnect.pcie import PCIE_GEN4, PCIeProtocol
from repro.perf.batch import MessageBatch
from repro.perf.harness import fingerprint_metrics
from repro.run import RunContext, RunSpec, TraceCache
from repro.sim.paradigms import (
    FinePackParadigm,
    P2PStoreParadigm,
    WriteCombiningParadigm,
)
from repro.trace.stream import KernelPhase, RemoteStoreBatch

N_GPUS = 4
SRC = 0
#: Memo key of the op stream ``_columns()`` returns; ``phase_batch``
#: callers pass one key per distinct op stream.
KEY = b"columns"


def _engine(config: FinePackConfig | None = None, **kwargs) -> FinePackEgress:
    return FinePackEgress(
        config or FinePackConfig(), PCIeProtocol(PCIE_GEN4), SRC, N_GPUS, **kwargs
    )


def _columns(seed: int = 3, n: int = 200):
    """A store stream with window misses, tag hits and atomic conflicts."""
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, 64, n) * 16 + rng.integers(0, 3, n) * 4096).astype(
        np.int64
    )
    sizes = rng.choice([4, 8, 16], n).astype(np.int64)
    dsts = rng.choice([d for d in range(N_GPUS) if d != SRC], n).astype(np.int64)
    is_atomic = rng.random(n) < 0.05
    times = np.linspace(10.0, 900.0, n)
    return addrs, sizes, dsts, times, is_atomic


def _run_scalar(engine, addrs, sizes, dsts, times, is_atomic, release_time):
    msgs = []
    for a, s, d, t, atomic in zip(
        addrs.tolist(),
        sizes.tolist(),
        dsts.tolist(),
        times.tolist(),
        is_atomic.tolist(),
    ):
        if atomic:
            msgs.extend(engine.on_atomic(a, s, d, t))
        else:
            msgs.extend(engine.on_store(a, s, d, t))
    msgs.extend(engine.on_release(release_time))
    return msgs


def _batch_view(batch):
    """One row per message of a MessageBatch: its fields and ranges."""
    counts = (
        np.ones(len(batch), dtype=np.int64) if batch.counts is None else batch.counts
    )
    ends = np.cumsum(counts).tolist()
    return [
        [
            batch.src,
            int(batch.dst[i]),
            int(batch.payload[i]),
            int(batch.overhead[i]),
            KINDS_BY_CODE[int(batch.kind[i])],
            float(batch.issue[i]).hex(),
            int(batch.packed[i]),
            (batch.starts[lo:hi].tolist(), batch.lengths[lo:hi].tolist()),
        ]
        for i, (lo, hi) in enumerate(zip([0, *ends], ends))
    ]


def _message_view(msgs):
    """:func:`_batch_view` of per-op messages, as the system reads them."""
    return _batch_view(MessageBatch.from_messages(SRC, msgs))


def test_phase_batch_matches_scalar_across_repeats():
    addrs, sizes, dsts, times, is_atomic = _columns()
    fast, scalar = _engine(), _engine()
    # Three phases with the same content but shifted times: phase 1
    # records the template, phases 2-3 replay it from the memo.
    for k in range(3):
        shift = 1000.0 * k
        got = fast.phase_batch(
            KEY, addrs, sizes, dsts, times + shift, is_atomic, 1000.0 + shift
        )
        assert got is not None
        want = _run_scalar(
            scalar, addrs, sizes, dsts, times + shift, is_atomic, 1000.0 + shift
        )
        assert _batch_view(got) == _message_view(want)
    assert len(fast._memo) == 1


#: Invalid-op injections (``None`` keeps the stream valid, and is the
#: common draw): each makes the per-op hooks raise partway through.
_INVALID = (None,) * 15 + ("size0", "negative", "to_self", "unknown_dst", "big_atomic")


@st.composite
def _phase_cases(draw):
    """A FinePack geometry and 1-2 op streams exercising every flush
    reason: tiny windows (window miss), small payloads (payload full),
    1-8 entries (entries full), same-line atomics (atomic conflict) and
    the release."""
    config = FinePackConfig(
        subheader_bytes=draw(st.sampled_from([2, 3, 5])),
        max_payload_bytes=draw(st.sampled_from([160, 300, 512, 4096])),
        queue_entries_per_partition=draw(
            st.one_of(st.integers(1, 8), st.just(64))
        ),
        entry_bytes=draw(st.sampled_from([32, 64, 128])),
    )
    phases = []
    for _ in range(draw(st.integers(1, 2))):
        ops = []
        for _ in range(draw(st.integers(0, 40))):
            shape = draw(
                st.sampled_from(["fresh", "duplicate", "adjacent", "overlap"])
            )
            if shape == "fresh" or not ops:
                addr = draw(st.sampled_from([0, 64, 4096, 1 << 20])) + draw(
                    st.integers(0, 300)
                )
                size = draw(st.integers(1, 200))
            else:
                prev_addr, prev_size = ops[-1][:2]
                size = draw(st.integers(1, 200))
                addr = {
                    "duplicate": prev_addr,
                    "adjacent": prev_addr + prev_size,
                    "overlap": prev_addr + prev_size // 2,
                }[shape]
                if shape == "duplicate":
                    size = prev_size
            atomic = draw(st.integers(0, 7)) == 0
            if atomic:
                size = draw(st.sampled_from([4, 8]))
            ops.append((addr, size, draw(st.sampled_from([1, 2, 3])), atomic))
        invalid = draw(st.sampled_from(_INVALID))
        if invalid is not None and ops:
            i = draw(st.integers(0, len(ops) - 1))
            addr, size, dst, atomic = ops[i]
            if invalid == "size0":
                size = 0
            elif invalid == "negative":
                size = -3
            elif invalid == "to_self":
                dst = SRC
            elif invalid == "unknown_dst":
                dst = N_GPUS
            else:
                size, atomic = 5000, True
            ops[i] = (addr, size, dst, atomic)
        phases.append(ops)
    return config, phases


def _op_columns(ops):
    return (
        np.array([o[0] for o in ops], dtype=np.int64),
        np.array([o[1] for o in ops], dtype=np.int64),
        np.array([o[2] for o in ops], dtype=np.int64),
        np.linspace(10.0, 900.0, len(ops)),
        np.array([o[3] for o in ops], dtype=bool),
    )


def _outcome(run):
    """``(message views, exception type)`` of one phase run."""
    try:
        return run(), None
    except Exception as exc:  # the type is what the paths must agree on
        return None, type(exc)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_phase_cases())
def test_phase_kernel_matches_per_op_hooks(case):
    # The columnar entry as the paradigm drives it: phase_batch keyed by
    # the phase, and the per-op hooks when it declines.  The last phase
    # repeats the first under its key, so a recorded template is
    # replayed too.
    config, phases = case
    fast, scalar = _engine(config), _engine(config)
    for k, i in enumerate([*range(len(phases)), 0]):
        addrs, sizes, dsts, times, is_atomic = _op_columns(phases[i])
        shift = 1000.0 * k
        cols = (addrs, sizes, dsts, times + shift, is_atomic, 1000.0 + shift)

        def columnar():
            out = fast.phase_batch(bytes([i]), *cols)
            if out is None:
                return _message_view(_run_scalar(fast, *cols))
            return _batch_view(out)

        assert _outcome(columnar) == _outcome(
            lambda: _message_view(_run_scalar(scalar, *cols))
        )


def test_kernel_declines_invalid_input_before_mutating():
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    sizes = sizes.copy()
    sizes[7] = 0
    engine = _engine()
    assert engine.phase_batch(KEY, addrs, sizes, dsts, times, is_atomic, 1e3) is None
    assert engine.queue.pending_entries() == 0
    assert not engine._memo


def test_distinct_streams_get_distinct_templates():
    a1, s1, d1, t1, at1 = _columns(seed=1)
    a2, s2, d2, t2, at2 = _columns(seed=2)
    engine = _engine()
    engine.phase_batch(b"seed 1", a1, s1, d1, t1, at1, 1000.0)
    engine.phase_batch(b"seed 2", a2, s2, d2, t2, at2, 1000.0)
    assert len(engine._memo) == 2


@pytest.mark.parametrize(
    "kwargs",
    [{"flush_timeout_ns": 500.0}, {"windows": 2}],
    ids=["timeout-policy", "multi-window"],
)
def test_stateful_configurations_decline(kwargs):
    engine = _engine(**kwargs)
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_batch(KEY, addrs, sizes, dsts, times, is_atomic, 1e3) is None


def test_attached_tracer_declines():
    engine = _engine()
    engine.tracer = object()
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_batch(KEY, addrs, sizes, dsts, times, is_atomic, 1e3) is None


def test_patched_hooks_decline():
    # Validation harnesses wrap the per-op hooks on the instance; the
    # columnar path must not route around them.
    engine = _engine()
    engine.on_store = lambda *a, **k: []
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_batch(KEY, addrs, sizes, dsts, times, is_atomic, 1e3) is None


def test_buffered_state_declines():
    engine = _engine()
    engine.queue.insert(64, 8, 1)
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_batch(KEY, addrs, sizes, dsts, times, is_atomic, 1e3) is None


@pytest.mark.parametrize("workload", ["jacobi", "hit", "sssp"])
def test_run_fingerprint_invariant_under_memo(workload, monkeypatch):
    spec = RunSpec(workload=workload, paradigm="finepack", n_gpus=4, iterations=3)
    cache = TraceCache()
    on = fingerprint_metrics(RunContext(spec, trace_cache=cache).run())
    # Declining (the documented ``None`` return) sends every phase
    # through the per-op hooks while the other fast paths stay on.
    monkeypatch.setattr(FinePackEgress, "phase_batch", lambda self, *args: None)
    off = fingerprint_metrics(RunContext(spec, trace_cache=cache).run())
    assert on == off


def test_template_columns_are_read_only():
    addrs, sizes, dsts, times, is_atomic = _columns()
    engine = _engine()
    batch = engine.phase_batch(KEY, addrs, sizes, dsts, times, is_atomic, 1e3)
    with pytest.raises(ValueError):
        batch.payload[0] = 0
    # A replay shares the template's columns and restamps only.
    again = engine.phase_batch(KEY, addrs, sizes, dsts, times + 5.0, is_atomic, 1e3)
    assert again.payload is batch.payload
    assert not np.array_equal(again.issue, batch.issue)


def _store_phase() -> KernelPhase:
    addrs, sizes, dsts, _, _ = _columns()
    return KernelPhase(
        gpu=SRC,
        work=KernelWork(flops=1e6, dram_bytes=1e6),
        stores=RemoteStoreBatch(addrs, sizes, dsts),
    )


def _attached(paradigm):
    paradigm.attach(N_GPUS, PCIeProtocol(PCIE_GEN4))
    return paradigm


@pytest.mark.parametrize(
    "make, batched",
    [
        (P2PStoreParadigm, True),
        (FinePackParadigm, True),
        (lambda: FinePackParadigm(windows=2), False),
        (lambda: FinePackParadigm(flush_timeout_ns=50.0), False),
        (WriteCombiningParadigm, False),
    ],
)
def test_paradigm_phase_batch_falls_back_to_the_per_op_messages(
    make, batched, monkeypatch
):
    # One engine entry point: a batch when the engine batches the phase,
    # else the per-op messages from the same op columns -- a declining
    # FinePack engine never runs the phase kernel.
    args = (_store_phase(), 0.0, 1000.0, {})
    want = _attached(make()).phase_messages(*args)
    packed = []
    monkeypatch.setattr(
        egress_module, "pack_phase", lambda *a: packed.append(a) or pack_phase(*a)
    )
    got = _attached(make()).phase_batch(*args)
    assert isinstance(got, MessageBatch) == batched
    if batched:
        assert _batch_view(got) == _message_view(want)
    else:
        assert _message_view(got) == _message_view(want)
        assert not packed
