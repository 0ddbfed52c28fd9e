"""Trace save/load replay must be bit-identical in simulation results."""

import pytest

from repro import registry
from repro.sim.system import MultiGPUSystem
from repro.trace.tracefile import load_trace, save_trace
from repro.workloads import DiffusionWorkload, SSSPWorkload


@pytest.mark.parametrize(
    "workload", [DiffusionWorkload(n=24), SSSPWorkload(n=8_000)], ids=["diffusion", "sssp"]
)
@pytest.mark.parametrize("paradigm", ["p2p", "finepack", "dma"])
def test_replay_identical(tmp_path, workload, paradigm):
    trace = workload.generate_trace(n_gpus=4, iterations=2, seed=5)
    path = tmp_path / "trace.npz"
    save_trace(trace, path)
    loaded = load_trace(path)

    cls = registry.paradigms.resolve(paradigm)
    a = MultiGPUSystem.build(n_gpus=4).run(trace, cls())
    b = MultiGPUSystem.build(n_gpus=4).run(loaded, cls())

    assert a.total_time_ns == pytest.approx(b.total_time_ns)
    assert a.wire_bytes == b.wire_bytes
    assert a.bytes.as_dict() == b.bytes.as_dict()
    assert a.packets.messages == b.packets.messages
