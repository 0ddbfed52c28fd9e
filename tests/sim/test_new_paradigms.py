"""Tests for the GPS learned-subscription model, sliced DMA, and
link error injection."""

import numpy as np
import pytest

from repro.interconnect.link import Link
from repro.interconnect.message import WireMessage
from repro.run import RunContext, RunSpec
from repro.sim.gps import SubscriptionTable
from repro.sim.paradigms import GPSParadigm, SlicedDMAParadigm, make_paradigm
from repro.trace.intervals import IntervalSet
from repro.workloads import ALSWorkload, DiffusionWorkload

BASE = 1 << 34
PAGE = 4096


def arr(values):
    return np.asarray(values, dtype=np.int64)


def replay(workload, trace, paradigm, **paradigm_params):
    """Run ``trace`` under a paradigm built from registry name + params."""
    spec = RunSpec.for_workload(
        workload,
        paradigm,
        paradigm_params=paradigm_params,
        n_gpus=trace.n_gpus,
        iterations=trace.n_iterations,
    )
    return RunContext(spec, trace=trace).run()


class TestSubscriptionTable:
    def test_epoch0_broadcasts(self):
        t = SubscriptionTable()
        keep = t.filter_stores(arr([BASE, BASE + PAGE]), arr([8, 8]), arr([1, 1]))
        assert keep.all()

    def test_unread_pages_unsubscribed(self):
        t = SubscriptionTable()
        t.filter_stores(arr([BASE, BASE + PAGE]), arr([8, 8]), arr([1, 1]))
        # The consumer only reads the first page.
        t.learn_epoch({1: IntervalSet.from_ranges([BASE], [64])})
        keep = t.filter_stores(arr([BASE, BASE + PAGE]), arr([8, 8]), arr([1, 1]))
        assert keep.tolist() == [True, False]
        assert t.stats.stores_elided == 1
        assert t.stats.pages_unsubscribed == 1

    def test_read_pages_resubscribe(self):
        t = SubscriptionTable()
        t.filter_stores(arr([BASE + PAGE]), arr([8]), arr([1]))
        t.learn_epoch({1: IntervalSet.empty()})  # page goes dead
        t.filter_stores(arr([BASE + PAGE]), arr([8]), arr([1]))  # elided
        t.learn_epoch({1: IntervalSet.from_ranges([BASE + PAGE], [8])})
        keep = t.filter_stores(arr([BASE + PAGE]), arr([8]), arr([1]))
        assert keep.all()

    def test_per_destination_isolation(self):
        t = SubscriptionTable()
        t.filter_stores(arr([BASE, BASE]), arr([8, 8]), arr([1, 2]))
        t.learn_epoch({1: IntervalSet.empty(), 2: IntervalSet.from_ranges([BASE], [8])})
        keep = t.filter_stores(arr([BASE, BASE]), arr([8, 8]), arr([1, 2]))
        assert keep.tolist() == [False, True]

    def test_page_size_validated(self):
        with pytest.raises(ValueError):
            SubscriptionTable(page_bytes=1000)


class TestLearnedGPS:
    def test_learned_trails_oracle_in_epoch0_only(self):
        """Learned subscription broadcasts epoch 0 and converges to the
        oracle's steady state afterwards."""
        w = ALSWorkload(n_users=2_000, n_items=500, avg_ratings=8)
        trace = w.generate_trace(4, 4, 7)
        learned = replay(w, trace, "gps", subscription="learned")
        oracle = replay(w, trace, "gps", subscription="oracle")
        assert learned.wire_bytes >= oracle.wire_bytes

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GPSParadigm(subscription="psychic")


class TestSlicedDMA:
    def test_registry(self):
        assert isinstance(make_paradigm("dma_sliced"), SlicedDMAParadigm)

    def test_overlap_beats_plain_dma_when_transfer_bound(self):
        """Slicing overlaps most of the transfer with compute.  (The
        win requires the transfer to dominate the per-call software
        overhead -- the paper's point that fine slicing is only worth
        the effort for heavy exchanges.)"""
        from repro.workloads import HITWorkload

        w = HITWorkload(n=64)
        trace = w.generate_trace(4, 2, 7)
        plain = replay(w, trace, "dma", per_call_overhead_ns=500.0)
        sliced = replay(
            w, trace, "dma_sliced", slices=4, per_call_overhead_ns=500.0
        )
        assert sliced.total_time_ns < plain.total_time_ns

    def test_slicing_overhead_dominates_tiny_exchanges(self):
        """For halo-sized transfers the extra memcpy calls cost more
        than the overlap saves -- why naive programmers don't slice."""
        w = DiffusionWorkload(n=48)
        trace = w.generate_trace(4, 2, 7)
        plain = replay(w, trace, "dma")
        sliced = replay(w, trace, "dma_sliced", slices=8)
        assert sliced.total_time_ns > plain.total_time_ns

    def test_same_bytes_delivered(self):
        w = DiffusionWorkload(n=48)
        trace = w.generate_trace(4, 2, 7)
        plain = replay(w, trace, "dma")
        sliced = replay(w, trace, "dma_sliced", slices=4)
        assert sliced.bytes.payload == plain.bytes.payload
        assert sliced.bytes.useful == plain.bytes.useful

    def test_more_calls_more_overhead_bytes_equal(self):
        p = SlicedDMAParadigm(slices=8)
        assert p.slices == 8
        with pytest.raises(ValueError):
            SlicedDMAParadigm(slices=0)

    def test_still_loses_to_finepack_on_irregular(self):
        """The paper's point stands: even expert-overlapped memcpy
        over-transfers what FinePack never sends."""
        from repro.workloads import PagerankWorkload

        w = PagerankWorkload(n=24_000)
        trace = w.generate_trace(4, 2, 7)
        finepack = replay(w, trace, "finepack")
        sliced = replay(w, trace, "dma_sliced")
        assert finepack.wire_bytes < sliced.wire_bytes


class TestLinkErrorInjection:
    def _msg(self):
        return WireMessage(src=0, dst=1, payload_bytes=4096, overhead_bytes=32)

    def test_replays_slow_the_link(self):
        clean = Link("clean", 32.0, propagation_ns=0.0)
        dirty = Link("dirty", 32.0, propagation_ns=0.0, error_rate=5e-4)
        t_clean = sum(clean.transmit(self._msg(), 0.0)[1] for _ in range(1))
        for _ in range(50):
            dirty.transmit(self._msg(), 0.0)
        assert dirty.stats.replays > 0
        assert dirty.stats.replay_bytes == dirty.stats.replays * 4128
        assert dirty.busy_until > 50 * (4128 / 32.0)
        assert t_clean <= 4128 / 32.0 + 1e-9

    def test_deterministic_by_name(self):
        a = Link("same", 32.0, error_rate=1e-4)
        b = Link("same", 32.0, error_rate=1e-4)
        for _ in range(100):
            a.transmit(self._msg(), 0.0)
            b.transmit(self._msg(), 0.0)
        assert a.stats.replays == b.stats.replays

    def test_reset_reseeds(self):
        a = Link("x", 32.0, error_rate=1e-4)
        for _ in range(100):
            a.transmit(self._msg(), 0.0)
        first = a.stats.replays
        a.reset()
        for _ in range(100):
            a.transmit(self._msg(), 0.0)
        assert a.stats.replays == first

    def test_error_rate_validated(self):
        with pytest.raises(ValueError):
            Link("bad", 32.0, error_rate=1.5)

    def test_zero_rate_no_rng(self):
        link = Link("clean", 32.0)
        assert link._rng is None
