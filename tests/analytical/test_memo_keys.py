"""The analytical tier's memos are keyed by content, not by history.

Phase statistics, pair costs, byte classifications and resolved
iterations are memoized across predictions under the phases' content
digests (``KernelPhase.digest`` / ``reads_digest``).  A key that missed
part of a column would let one phase's entry answer for another's, so
these tests perturb a single element of one column of a small
hand-built trace and require the exact paradigms (p2p, dma) to keep
matching the DES byte for byte -- with cleared memos and with memos
warmed by the unperturbed trace -- and every paradigm's prediction to
be independent of what was predicted before it.  The pair-cost memo
leaves the PCIe generation out of its key, so the last test requires
every paradigm's pair costs to be equal across generations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analytical import predict_metrics
from repro.analytical.model import _phase_pair_costs
from repro.analytical.stats import clear_memo, phase_stats
from repro.gpu.compute import KernelWork
from repro.interconnect.pcie import GENERATIONS, PCIeProtocol
from repro.perf.harness import fingerprint_metrics
from repro.run import RunContext, RunSpec
from repro.trace.intervals import IntervalSet
from repro.trace.stream import (
    DMATransfer,
    IterationTrace,
    KernelPhase,
    RemoteStoreBatch,
    WorkloadTrace,
)

N_GPUS = 3
N_ITERATIONS = 3
N_STORES = 64
N_ATOMICS = 8
N_READS = 8
#: Read intervals are READ_LEN bytes every READ_STRIDE bytes, so moving
#: one end by less than the gap keeps the set sorted and disjoint.
READ_STRIDE, READ_LEN = 512, 256
#: Editable columns; "dma" rows are (dst, dst_addr, nbytes, aggregated).
COLUMNS = (
    "addrs", "sizes", "dsts", "aaddrs", "asizes", "adsts",
    "rstarts", "rends", "dma",
)


def _columns(gpu: int) -> dict[str, np.ndarray]:
    """One phase's columns: strided stores and atomics to both peers,
    evenly spaced reads offset per GPU, and a two-transfer DMA plan."""
    peers = np.array([g for g in range(N_GPUS) if g != gpu])
    i = np.arange(N_STORES)
    k = np.arange(N_ATOMICS)
    r = np.arange(N_READS)
    return {
        "addrs": i * 64 + 16 * gpu,
        "sizes": np.full(N_STORES, 16),
        "dsts": peers[i % 2],
        "aaddrs": k * READ_STRIDE + 8,
        "asizes": np.full(N_ATOMICS, 8),
        "adsts": peers[k % 2],
        "rstarts": r * READ_STRIDE + 64 * gpu,
        "rends": r * READ_STRIDE + 64 * gpu + READ_LEN,
        "dma": np.array([[peers[0], 0, 2000, 0], [peers[1], 2600, 1000, 1]]),
    }


def _phase(gpu: int, cols: dict[str, np.ndarray]) -> KernelPhase:
    def batch(prefix: str) -> RemoteStoreBatch:
        return RemoteStoreBatch(
            cols[prefix + "addrs"], cols[prefix + "sizes"], cols[prefix + "dsts"]
        )

    return KernelPhase(
        gpu=gpu,
        work=KernelWork(flops=1e6, dram_bytes=1e6),
        stores=batch(""),
        atomics=batch("a"),
        reads=IntervalSet(cols["rstarts"], cols["rends"]),
        dma=[
            DMATransfer(int(d), int(a), int(n), bool(g))
            for d, a, n, g in cols["dma"]
        ],
    )


def _edit_columns(edit, cols: dict[str, np.ndarray]) -> None:
    """Apply one single-element edit, keeping the phase valid: positive
    sizes, a peer destination, disjoint reads, positive DMA lengths."""
    _, gpu, column, index, field, shift, size = edit
    col = cols[column]
    index %= len(col)
    # A GPU's two peers sum to 3 - gpu, so peer_sum - d swaps them.
    peer_sum = 3 - gpu
    if column in ("sizes", "asizes"):
        col[index] = size
    elif column in ("dsts", "adsts"):
        col[index] = peer_sum - col[index]
    elif column == "dma":
        row = col[index]
        row[field] = (
            peer_sum - row[0], row[1] + shift, row[2] + shift, 1 - row[3]
        )[field]
    else:
        col[index] += shift


def _trace(edit=None) -> WorkloadTrace:
    """The hand-built trace, with ``edit`` applied to one phase.

    An edit is ``(iteration, gpu, column, index, field, shift, size)``;
    ``field`` picks the DMA row field, ``size`` is a new op size.
    """
    iterations = []
    for it in range(N_ITERATIONS):
        phases = []
        for gpu in range(N_GPUS):
            cols = _columns(gpu)
            if edit is not None and edit[:2] == (it, gpu):
                _edit_columns(edit, cols)
            phases.append(_phase(gpu, cols))
        iterations.append(IterationTrace(phases))
    return WorkloadTrace("hand_built", N_GPUS, iterations)


_edits = st.tuples(
    st.integers(0, N_ITERATIONS - 1),
    st.integers(0, N_GPUS - 1),
    st.sampled_from(COLUMNS),
    st.integers(0, N_STORES - 1),
    st.sampled_from(range(4)),
    st.integers(1, READ_STRIDE - READ_LEN - 1),
    st.sampled_from([4, 8, 12, 24, 40]),
)


def _bytes(metrics) -> tuple[int, int, int]:
    b = metrics.bytes
    return b.total, b.payload, b.useful


@settings(max_examples=50, deadline=None)
@given(edit=_edits)
# One visible edit per column, in the last iteration: each would be
# lost by a memo key that skipped that column.
@example(edit=(2, 0, "addrs", 1, 0, 200, 8))
@example(edit=(2, 0, "sizes", 1, 0, 1, 24))
@example(edit=(2, 0, "dsts", 1, 0, 1, 8))
@example(edit=(2, 0, "aaddrs", 1, 0, 200, 8))
@example(edit=(2, 0, "asizes", 1, 0, 1, 24))
@example(edit=(2, 1, "adsts", 0, 0, 1, 8))
@example(edit=(2, 1, "rstarts", 1, 0, 100, 8))
@example(edit=(2, 1, "rends", 1, 0, 100, 8))
@example(edit=(2, 0, "dma", 0, 2, 100, 8))
def test_single_element_edit_keeps_exact_paradigms_exact(edit):
    base, edited = _trace(), _trace(edit)
    for paradigm in ("p2p", "dma"):
        spec = RunSpec(
            workload=edited.name,
            paradigm=paradigm,
            n_gpus=N_GPUS,
            iterations=N_ITERATIONS,
        )
        want = _bytes(RunContext(spec, trace=edited).run())
        analytical = spec.with_options(fidelity="analytical")
        clear_memo()
        assert _bytes(predict_metrics(analytical, edited)) == want
        clear_memo()
        predict_metrics(analytical, base)
        assert _bytes(predict_metrics(analytical, edited)) == want


@pytest.mark.parametrize(
    "paradigm", ["p2p", "wc", "finepack", "gps", "dma", "dma_sliced", "infinite"]
)
def test_prediction_is_independent_of_earlier_predictions(paradigm):
    spec = RunSpec(
        workload="hand_built",
        paradigm=paradigm,
        n_gpus=N_GPUS,
        iterations=N_ITERATIONS,
        fidelity="analytical",
    )
    # The two traces differ only in the size of GPU 0's store 1 in
    # iteration 0: a 16 B store in one, 24 B in the other.
    trace = _trace()
    other = _trace((0, 0, "sizes", 1, 0, 1, 24))
    clear_memo()
    fresh = fingerprint_metrics(predict_metrics(spec, trace))
    clear_memo()
    predict_metrics(spec, other)
    assert fingerprint_metrics(predict_metrics(spec, trace)) == fresh


def _cost_fields(cost) -> dict:
    fields = dict(vars(cost))
    delivered = fields.pop("delivered")
    return {**fields, "delivered": (delivered.starts.tolist(), delivered.ends.tolist())}


@pytest.mark.parametrize(
    "paradigm", ["p2p", "wc", "finepack", "gps", "dma", "dma_sliced", "infinite"]
)
def test_pair_costs_do_not_depend_on_the_pcie_generation(paradigm):
    """_PAIR_MEMO keys pair costs on the protocol's TLP overhead, max
    payload and flit mode, not on the generation, so one cost must serve
    every generation: each paradigm's pair costs for a sample phase are
    equal across GENERATIONS, and so are those key terms."""
    trace = _trace()
    phase = trace.iterations[0].phases[0]
    reads = {p.gpu: p.reads for p in trace.iterations[1].phases}
    costs, terms = [], set()
    for generation in GENERATIONS.values():
        spec = RunSpec(
            workload=trace.name,
            paradigm=paradigm,
            n_gpus=N_GPUS,
            generation=generation,
        )
        protocol = PCIeProtocol(generation)
        built = spec.build_paradigm()
        built.attach(N_GPUS, protocol)
        pair_costs = _phase_pair_costs(
            paradigm, built, protocol, phase, phase_stats(phase), reads
        )
        costs.append({dst: _cost_fields(c) for dst, c in pair_costs.items()})
        terms.add((protocol.per_tlp_overhead, protocol.max_payload, protocol.flit_mode))
    assert len(terms) == 1
    assert all(c == costs[0] for c in costs)
    if paradigm != "infinite":
        assert costs[0]
