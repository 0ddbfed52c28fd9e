"""Unit tier for FinePack's columnar phase entry (``FinePackEgress.phase_ops``).

The contract: feeding a phase's op columns through ``phase_ops`` --
packed by the columnar phase kernel or replayed from the
content-addressed memo -- produces exactly the messages and stat
mutations of the scalar per-op path (``on_store``/``on_atomic``/
``on_release``), differing in nothing but wall-clock cost.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import FinePackConfig
from repro.core.egress import FinePackEgress
from repro.interconnect.message import MessageKind
from repro.interconnect.pcie import PCIE_GEN4, PCIeProtocol
from repro.perf.config import PerfConfig, perf_overrides
from repro.perf.harness import fingerprint_metrics
from repro.run import RunContext, RunSpec, TraceCache

N_GPUS = 4
SRC = 0


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


def _message_view(msg):
    view = [
        msg.src,
        msg.dst,
        msg.payload_bytes,
        msg.overhead_bytes,
        msg.kind,
        msg.issue_time.hex(),
        msg.stores_packed,
    ]
    if msg.kind is MessageKind.FINEPACK:
        starts, lengths = msg.meta["ranges"]
        view.append((starts.tolist(), lengths.tolist()))
        packet = msg.meta["packet"]
        view.append(
            (
                packet.base_addr,
                packet.stores_absorbed,
                packet.payload_data_bytes,
                [(s.offset, s.length) for s in packet.subs],
            )
        )
    else:
        view.append(msg.meta["range1"])
    return view


def _partition_stats(engine):
    return {
        d: (
            p.stats.stores_in,
            p.stats.store_hits,
            p.stats.packets,
            list(p.stats.flushes.items()),
            list(p.stats.stores_per_packet),
        )
        for d, p in engine.queue.partitions.items()
    }


def test_phase_ops_matches_scalar_across_repeats():
    addrs, sizes, dsts, times, is_atomic = _columns()
    fast, scalar = _engine(), _engine()
    # Three phases with the same content but shifted times: phase 1
    # records the template, phases 2-3 replay it from the memo.
    for k in range(3):
        shift = 1000.0 * k
        got = fast.phase_ops(
            addrs, sizes, dsts, times + shift, is_atomic, 1000.0 + shift
        )
        assert got is not None
        want = _run_scalar(
            scalar, addrs, sizes, dsts, times + shift, is_atomic, 1000.0 + shift
        )
        assert [_message_view(m) for m in got] == [
            _message_view(m) for m in want
        ]
    assert vars(fast.stats) == vars(scalar.stats)
    assert _partition_stats(fast) == _partition_stats(scalar)
    assert fast.packetizer.packets_built == scalar.packetizer.packets_built
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
        return [_message_view(m) for m in run()], None
    except Exception as exc:  # the type is what the paths must agree on
        return None, type(exc)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_phase_cases())
def test_phase_kernel_matches_per_op_hooks(case):
    # The columnar entry as the paradigm drives it: phase_ops, and the
    # per-op hooks when it declines.  The last phase repeats the first,
    # so a recorded template is replayed too.
    config, phases = case
    fast, scalar = _engine(config), _engine(config)
    for k, ops in enumerate([*phases, phases[0]]):
        addrs, sizes, dsts, times, is_atomic = _op_columns(ops)
        shift = 1000.0 * k
        cols = (addrs, sizes, dsts, times + shift, is_atomic, 1000.0 + shift)

        def columnar():
            out = fast.phase_ops(*cols)
            return _run_scalar(fast, *cols) if out is None else out

        assert _outcome(columnar) == _outcome(lambda: _run_scalar(scalar, *cols))
        assert vars(fast.stats) == vars(scalar.stats)
        assert _partition_stats(fast) == _partition_stats(scalar)
        assert fast.packetizer.packets_built == scalar.packetizer.packets_built


def test_kernel_declines_invalid_input_before_mutating():
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    sizes = sizes.copy()
    sizes[7] = 0
    engine = _engine()
    assert engine.phase_ops(addrs, sizes, dsts, times, is_atomic, 1e3) is None
    assert vars(engine.stats) == vars(_engine().stats)
    assert _partition_stats(engine) == _partition_stats(_engine())
    assert not engine._memo


def test_distinct_streams_get_distinct_templates():
    a1, s1, d1, t1, at1 = _columns(seed=1)
    a2, s2, d2, t2, at2 = _columns(seed=2)
    engine = _engine()
    engine.phase_ops(a1, s1, d1, t1, at1, 1000.0)
    engine.phase_ops(a2, s2, d2, t2, at2, 1000.0)
    assert len(engine._memo) == 2


@pytest.mark.parametrize(
    "kwargs",
    [{"flush_timeout_ns": 500.0}, {"windows": 2}],
    ids=["timeout-policy", "multi-window"],
)
def test_stateful_configurations_decline(kwargs):
    engine = _engine(**kwargs)
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_ops(addrs, sizes, dsts, times, is_atomic, 1e3) is None


def test_attached_tracer_declines():
    engine = _engine()
    engine.tracer = object()
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_ops(addrs, sizes, dsts, times, is_atomic, 1e3) is None


def test_patched_hooks_decline():
    # Validation harnesses wrap the per-op hooks on the instance; the
    # columnar path must not route around them.
    engine = _engine()
    engine.on_store = lambda *a, **k: []
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_ops(addrs, sizes, dsts, times, is_atomic, 1e3) is None


def test_buffered_state_declines():
    engine = _engine()
    engine.queue.insert(64, 8, 1)
    addrs, sizes, dsts, times, is_atomic = _columns(n=20)
    assert engine.phase_ops(addrs, sizes, dsts, times, is_atomic, 1e3) is None


@pytest.mark.parametrize("workload", ["jacobi", "hit", "sssp"])
def test_run_fingerprint_invariant_under_memo(workload):
    spec = RunSpec(workload=workload, paradigm="finepack", n_gpus=4, iterations=3)
    cache = TraceCache()
    with perf_overrides(PerfConfig.all_on()):
        on = fingerprint_metrics(RunContext(spec, trace_cache=cache).run())
    with perf_overrides(PerfConfig(memo_egress=False)):
        off = fingerprint_metrics(RunContext(spec, trace_cache=cache).run())
    assert on == off
