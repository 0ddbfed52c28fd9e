"""Columnar de-packetizer admission against the per-row rule.

:meth:`Depacketizer.admit_columns` times a destination's packets in
array passes when no packet can find the ingress buffer full, and runs
the one admission rule, :meth:`Depacketizer.admit_one`, row by row
otherwise.  Either way it must return the rule's drain times and leave
the buffer state (``_occupancy``) exactly as the row loop does.  The
census pins that the benchmark's FinePack cells take the array passes
everywhere, so a change that sends them back to the loop fails here.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import FinePackConfig
from repro.core.depacketizer import Depacketizer
from repro.run import RunContext, RunSpec, TraceCache


@st.composite
def _streams(draw):
    """A buffer, a carried history and one destination's packets.

    Arrivals and drain times are small integers (data bytes over a
    power-of-two rate), so a drain often equals a later arrival; small
    buffers fill in bursts; arrivals may step back; an entry count may
    exceed the buffer.
    """
    capacity = draw(st.integers(1, 8))
    rate = draw(st.sampled_from([0.5, 1.0, 2.0]))

    def rows(n, latest):
        arrival = draw(
            st.lists(st.integers(0, latest), min_size=n, max_size=n).map(sorted)
        )
        if draw(st.integers(0, 4)) == 0 and n > 1:
            i = draw(st.integers(1, n - 1))
            arrival[i] = draw(st.integers(0, arrival[i]))
        entries = draw(
            st.lists(st.integers(1, capacity), min_size=n, max_size=n)
        )
        if draw(st.integers(0, 9)) == 0 and n:
            entries[draw(st.integers(0, n - 1))] = capacity + 1
        data = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        return (
            np.asarray(arrival, dtype=np.float64),
            np.asarray(entries, dtype=np.int64),
            np.asarray(data, dtype=np.int64),
        )

    # The history ends while its packets may still drain into the
    # stream's arrivals.
    history = rows(draw(st.integers(0, 6)), 6)
    stream = rows(draw(st.integers(0, 30)), 16)
    return capacity, rate, history, stream


def _depacketizer(capacity, rate):
    return Depacketizer(
        FinePackConfig(), buffer_entries=capacity, drain_bytes_per_ns=rate
    )


def _outcome(run):
    try:
        return run(), None
    except ValueError as exc:
        return None, str(exc)


def _by_rows(d, arrival, entries, data):
    return [
        d.admit_one(e, b, a)
        for a, e, b in zip(arrival.tolist(), entries.tolist(), data.tolist())
    ]


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_streams())
def test_columns_match_the_row_rule(case):
    capacity, rate, history, stream = case
    fast, slow = _depacketizer(capacity, rate), _depacketizer(capacity, rate)
    # The same carried state on both sides, left by earlier admissions.
    assert _outcome(lambda: _by_rows(fast, *history)) == _outcome(
        lambda: _by_rows(slow, *history)
    )
    rows: list = []
    one = fast.admit_one

    def counted(*args):
        rows.append(args)
        return one(*args)

    fast.admit_one = counted
    got = _outcome(lambda: fast.admit_columns(*stream).tolist())
    want = _outcome(lambda: _by_rows(slow, *stream))
    assert got == want
    assert fast._occupancy == slow._occupancy
    # The array passes run exactly when the rows arrive in order, fit
    # the buffer and none of them waits (its drain is the optimistic
    # one), so an in-flight count that errs either way shows here.
    arrival, entries, data = stream
    optimistic = [a + b / rate for a, b in zip(arrival.tolist(), data.tolist())]
    in_arrays = (
        bool((arrival[1:] >= arrival[:-1]).all())
        and int(entries.max(initial=0)) <= capacity
        and want[0] == optimistic
    )
    assert (not rows) == (in_arrays or not arrival.size)


def test_array_path_keeps_a_drain_that_ties_an_arrival_out():
    # Row 0 drains at 2.0 exactly when row 1 arrives: it no longer holds
    # its entries, so row 1 fits without waiting.
    d = _depacketizer(2, 1.0)
    done = d.admit_columns(
        np.array([0.0, 2.0]), np.array([2, 2]), np.array([2, 1])
    )
    assert done.tolist() == [2.0, 3.0]
    assert d._occupancy == [(3.0, 2)]


def test_carried_packets_hold_entries():
    d = _depacketizer(2, 1.0)
    d.admit_one(2, 10, 0.0)
    # Still draining at 5.0, so the next packet waits for it.
    assert d.admit_columns(np.array([5.0]), np.array([1]), np.array([1])).tolist() == [
        11.0
    ]


def test_carried_drain_that_ties_an_arrival_is_out():
    d = _depacketizer(2, 1.0)
    d.admit_one(2, 2, 0.0)
    rows = []
    d.admit_one = lambda *args: rows.append(args)
    assert d.admit_columns(np.array([2.0]), np.array([1]), np.array([1])).tolist() == [
        3.0
    ]
    assert not rows
    assert d._occupancy == [(3.0, 1)]


def test_oversized_row_raises_after_admitting_earlier_rows():
    d = _depacketizer(2, 1.0)
    with pytest.raises(ValueError, match="needs 3 buffer entries"):
        d.admit_columns(
            np.array([0.0, 1.0]), np.array([1, 3]), np.array([4, 4])
        )
    assert d._occupancy == [(4.0, 1)]


#: Seed-7 FinePack cells of the benchmark's two DES workloads.
HPC = ("als", "ct", "diffusion", "eqwp", "hit", "jacobi", "pagerank", "sssp")
COLLECTIVES = ("allreduce_ring", "allreduce_tree", "allgather", "alltoall", "pipeline")
FAT_TREE_16 = {
    "n_gpus": 16,
    "iterations": 2,
    "topology": "fat_tree",
    "topology_params": {"fanout": 4},
}


def test_admission_census():
    # Every (destination, iteration) batch of these cells is admitted in
    # array passes: no row goes through the per-row rule.
    calls: Counter[str] = Counter()
    columns, one = Depacketizer.admit_columns, Depacketizer.admit_one

    def counted_columns(self, *args):
        calls["columns"] += 1
        return columns(self, *args)

    def counted_one(self, *args):
        calls["rows"] += 1
        return one(self, *args)

    specs = [RunSpec(workload=w, paradigm="finepack", seed=7) for w in HPC] + [
        RunSpec(workload=w, paradigm="finepack", seed=7, **FAT_TREE_16)
        for w in COLLECTIVES
    ]
    cache = TraceCache()
    with mock.patch.object(
        Depacketizer, "admit_columns", counted_columns
    ), mock.patch.object(Depacketizer, "admit_one", counted_one):
        for spec in specs:
            RunContext(spec, trace_cache=cache).run()
    assert calls["columns"] > 0
    assert calls["rows"] == 0
