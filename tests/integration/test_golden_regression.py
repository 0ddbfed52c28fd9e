"""Golden-number regression tests.

The simulator is fully deterministic for a fixed seed, so the headline
metrics of every workload are pinned here (captured from a verified
run) with a tolerance band.  A failure means the model's behaviour
changed -- re-run the benches, review EXPERIMENTS.md, and re-pin
deliberately if the change is intentional.
"""

import io

import pytest

from repro.run import RunContext, RunSpec, labeled_sweep
from repro.workloads import WORKLOADS

#: Captured at 4 GPUs, iterations=2, seed 7 (the ``RunSpec`` defaults
#: otherwise).
GOLDEN = {
    "jacobi": {
        "speedups": {"p2p": 3.51, "dma": 2.81, "finepack": 3.50, "infinite": 3.53},
        "finepack_wire": 206_304,
        "stores_per_packet": 25.6,
    },
    "pagerank": {
        "speedups": {"p2p": 0.47, "dma": 0.73, "finepack": 1.34, "infinite": 2.23},
        "finepack_wire": 2_697_984,
        "stores_per_packet": 68.3,
    },
    "sssp": {
        "speedups": {"p2p": 0.45, "dma": 0.78, "finepack": 1.29, "infinite": 2.75},
        "finepack_wire": 6_070_844,
        "stores_per_packet": 63.9,
    },
    "als": {
        "speedups": {"p2p": 0.97, "dma": 0.73, "finepack": 1.35, "infinite": 2.04},
        "finepack_wire": 2_238_792,
        "stores_per_packet": 66.3,
    },
    "ct": {
        "speedups": {"p2p": 3.82, "dma": 3.27, "finepack": 3.82, "infinite": 3.83},
        "finepack_wire": 1_012_464,
        "stores_per_packet": 3.6,
    },
    "eqwp": {
        "speedups": {"p2p": 3.59, "dma": 2.45, "finepack": 3.57, "infinite": 3.60},
        "finepack_wire": 2_575_632,
        "stores_per_packet": 29.6,
    },
    "diffusion": {
        "speedups": {"p2p": 3.35, "dma": 2.07, "finepack": 3.32, "infinite": 3.37},
        "finepack_wire": 2_086_368,
        "stores_per_packet": 29.5,
    },
    "hit": {
        "speedups": {"p2p": 1.50, "dma": 1.04, "finepack": 1.78, "infinite": 3.45},
        "finepack_wire": 11_126_208,
        "stores_per_packet": 29.8,
    },
}

TOLERANCE = 0.15


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_metrics(name):
    base = RunSpec.for_workload(WORKLOADS[name](), iterations=2)
    result = labeled_sweep(
        {
            p: base.with_options(paradigm=p)
            for p in ("p2p", "dma", "finepack", "infinite")
        }
    ).result.by_label()
    golden = GOLDEN[name]
    for paradigm, expected in golden["speedups"].items():
        got = result[paradigm].speedup
        assert got == pytest.approx(expected, rel=TOLERANCE), (
            f"{name}/{paradigm}: speedup {got:.2f} drifted from "
            f"golden {expected:.2f}"
        )
    fp = result["finepack"].metrics
    assert fp.wire_bytes == pytest.approx(golden["finepack_wire"], rel=TOLERANCE)
    assert fp.packets.mean_stores_per_packet == pytest.approx(
        golden["stores_per_packet"], rel=TOLERANCE
    )


class TestDeterminism:
    """Beyond matching golden numbers within tolerance, two runs of the
    same (workload, seed, config) must agree exactly -- including the
    full event stream the observability layer records."""

    @staticmethod
    def _traced_run():
        from repro.obs import Tracer, write_chrome_trace

        tracer = Tracer()
        spec = RunSpec.for_workload(WORKLOADS["jacobi"](), n_gpus=4, iterations=2)
        metrics = RunContext(spec, tracer=tracer).run()
        export = io.StringIO()
        write_chrome_trace(export, tracer)
        return metrics, export.getvalue()

    def test_repeated_runs_are_byte_identical(self):
        m1, trace1 = self._traced_run()
        m2, trace2 = self._traced_run()
        assert trace1 == trace2, "Chrome-trace exports diverged between runs"
        assert m1.summary() == m2.summary()
        assert m1.total_time_ns == m2.total_time_ns
        assert m1.wire_bytes == m2.wire_bytes

    def test_tracing_does_not_perturb_metrics(self):
        """A traced run and an untraced run report identical metrics --
        observation must not change the physics."""
        from repro.obs import Tracer

        spec = RunSpec.for_workload(WORKLOADS["jacobi"](), n_gpus=2, iterations=2)
        plain = RunContext(spec).run()
        traced = RunContext(spec, tracer=Tracer()).run()
        assert plain.summary() == traced.summary()
        assert plain.total_time_ns == traced.total_time_ns
