"""Unit tests for the per-paradigm cost terms against hand-computed
micro-traces (derivations in ``docs/analytical.md``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytical.protocol import dma_cost, finepack_cost, p2p_cost, wc_cost
from repro.analytical.stats import (
    DistanceProfile,
    DstOps,
    _build_pack_profile,
    line_geometry,
    overlap_count,
    sector_expand,
)
from repro.core.config import FinePackConfig
from repro.interconnect.message import MessageKind
from repro.interconnect.pcie import DW_BYTES
from repro.trace.intervals import IntervalSet
from repro.trace.stream import DMATransfer


def ops(addr_size_pairs) -> DstOps:
    addrs = np.asarray([a for a, _ in addr_size_pairs], dtype=np.int64)
    sizes = np.asarray([s for _, s in addr_size_pairs], dtype=np.int64)
    return DstOps(addrs, sizes)


class TestP2P:
    def test_one_tlp_per_store_with_dw_padding(self, protocol):
        # Two stores of 4 and 7 bytes: payload 11, DW padding 1 byte on
        # the 7 B store, one TLP header each.
        st = ops([(0, 4), (100, 7)])
        cost = p2p_cost(protocol, st, None)
        assert cost.payload == 11
        assert cost.overhead == 2 * protocol.per_tlp_overhead + 1
        assert cost.messages == 2
        assert cost.stores_carried == 2
        assert cost.by_kind == {MessageKind.STORE: 2}
        assert cost.delivered.total_bytes == 11

    def test_duplicate_stores_ship_twice_but_deliver_once(self, protocol):
        st = ops([(0, 8), (0, 8)])
        cost = p2p_cost(protocol, st, None)
        assert cost.payload == 16
        assert cost.delivered.total_bytes == 8  # footprint collapses

    def test_atomics_one_tlp_each(self, protocol):
        at = ops([(0, 4), (64, 8)])
        cost = p2p_cost(protocol, None, at)
        assert cost.payload == 12
        assert cost.overhead == 2 * protocol.per_tlp_overhead
        assert cost.by_kind == {MessageKind.ATOMIC: 2}


class TestWC:
    def test_one_combined_store_per_line_run(self, protocol):
        # Footprint [0, 8) + [256, 264): two runs in 128 B lines, no
        # DW padding (both runs are DW multiples).
        st = ops([(0, 4), (4, 4), (256, 8)])
        cost = wc_cost(protocol, st, None)
        assert cost.payload == 16
        assert cost.overhead == 2 * protocol.per_tlp_overhead
        assert cost.messages == 2
        assert cost.by_kind == {MessageKind.COMBINED_STORE: 2}

    def test_run_spanning_a_line_boundary_splits(self, protocol):
        # [120, 136) crosses the 128 B boundary: two runs.
        st = ops([(120, 16)])
        cost = wc_cost(protocol, st, None)
        assert cost.messages == 2
        assert cost.payload == 16

    def test_sector_expansion_overtransfers(self, protocol):
        # One 4 B store in a 32 B sector ships the whole sector.
        st = ops([(100, 4)])
        cost = wc_cost(protocol, st, None, sector_bytes=32)
        assert cost.payload == 32
        assert cost.delivered.total_bytes == 32


class TestFinePack:
    def test_single_epoch_is_exact(self, protocol, config):
        # 32 contiguous 4 B stores: one 128 B footprint run, well under
        # the 64-entry and 4 KB payload budgets -> exactly one packet
        # with one sub-header.
        st = ops([(i * 4, 4) for i in range(32)])
        cost = finepack_cost(config, protocol, st, None)
        assert cost.messages == 1
        assert cost.payload == 128
        subs = 1
        pad = (-(128 + config.subheader_bytes * subs)) % DW_BYTES
        assert cost.overhead == (
            protocol.per_tlp_overhead + config.subheader_bytes * subs + pad
        )
        assert cost.packed_stores == 32

    def test_window_transitions_force_flushes(self, protocol):
        # Sub-header of 2 B -> 64 B window.  Alternating between two
        # windows forces a flush per transition: 4 segments = 4 packets.
        config = FinePackConfig(subheader_bytes=2)
        st = ops([(0, 4), (256, 4), (4, 4), (260, 4)])
        cost = finepack_cost(config, protocol, st, None)
        assert cost.messages == 4

    def test_payload_capacity_forces_flushes(self, protocol, config):
        # 8 KB of unique bytes cannot fit one 4 KB payload: >= 2 packets.
        st = ops([(i * 64, 64) for i in range(128)])
        cost = finepack_cost(config, protocol, st, None)
        assert cost.messages >= 2
        assert cost.payload == 8192  # no duplicates to re-ship

    def test_entry_capacity_forces_flushes(self, protocol):
        # 128 distinct lines through 16 queue entries, each line
        # revisited from far away: allocations >> entries -> many epochs.
        config = FinePackConfig(queue_entries_per_partition=16)
        st = ops([(i * 128, 4) for i in range(128)])
        cost = finepack_cost(config, protocol, st, None)
        assert cost.messages >= 128 // 16

    def test_atomic_conflicts_add_epochs(self, protocol, config):
        st = ops([(i * 4, 4) for i in range(32)])
        base = finepack_cost(config, protocol, st, None)
        at = ops([(0, 4)])  # overlaps buffered store bytes
        conflicted = finepack_cost(config, protocol, st, at)
        # One extra flush epoch plus the atomic's own TLP.
        assert conflicted.by_kind[MessageKind.FINEPACK] == (
            base.by_kind[MessageKind.FINEPACK] + 1
        )
        assert conflicted.by_kind[MessageKind.ATOMIC] == 1


class TestDMA:
    def test_matches_bulk_transfer_cost(self, protocol):
        tr = DMATransfer(dst=1, dst_addr=0, nbytes=10_000)
        cost = dma_cost(protocol, [tr])
        payload, overhead = protocol.bulk_transfer_cost(10_000)
        assert (cost.payload, cost.overhead) == (payload, overhead)
        assert cost.delivered.total_bytes == 10_000

    def test_slicing_pays_extra_tail_tlps(self, protocol):
        tr = DMATransfer(dst=1, dst_addr=0, nbytes=10_000)
        whole = dma_cost(protocol, [tr])
        sliced = dma_cost(protocol, [tr], slices=4)
        assert sliced.payload == whole.payload
        assert sliced.overhead >= whole.overhead
        assert sliced.messages >= whole.messages


class TestDistanceProfile:
    """O(log n) evaluations against brute-force expectations."""

    d = np.asarray([1, 2, 5, 10, 40], dtype=np.int64)

    @pytest.mark.parametrize("span", [0.5, 1.0, 3.0, 7.5, 100.0])
    def test_crossings_matches_brute_force(self, span):
        prof = DistanceProfile.build(self.d, n_first=2)
        expected = 2 + sum(min(1.0, di / span) for di in self.d)
        assert prof.crossings(span) == pytest.approx(expected)

    @pytest.mark.parametrize("span", [0.5, 1.0, 3.0, 7.5, 100.0])
    def test_merges_matches_brute_force(self, span):
        prof = DistanceProfile.build(self.d)
        expected = sum(max(0.0, 1.0 - di / span) for di in self.d)
        assert prof.merges(span) == pytest.approx(expected)

    @pytest.mark.parametrize("span", [0.5, 3.0, 100.0])
    def test_weighted_crossing_fraction(self, span):
        w = np.asarray([4, 8, 4, 16, 8], dtype=np.int64)
        prof = DistanceProfile.build(self.d, weights=w)
        num = sum(wi * min(1.0, di / span) for di, wi in zip(self.d, w))
        assert prof.weighted_crossing_fraction(span) == pytest.approx(
            num / w.sum()
        )


class TestPackProfile:
    def test_contiguous_stream_merges_fully(self):
        # 4 B stores walking one 128 B line: 1 allocation, every later
        # op merges at distance 1, no duplicates.
        addrs = np.arange(0, 128, 4, dtype=np.int64)
        sizes = np.full(32, 4, dtype=np.int64)
        prof = _build_pack_profile(addrs, sizes, 128)
        assert prof.pieces == 32
        assert prof.alloc.n_first == 1
        assert prof.merge.d_sorted.size == 31
        assert (prof.merge.d_sorted == 1).all()
        assert prof.dup.d_sorted.size == 0

    def test_duplicate_writes_recorded_with_weights(self):
        addrs = np.asarray([0, 512, 0], dtype=np.int64)
        sizes = np.asarray([8, 4, 8], dtype=np.int64)
        prof = _build_pack_profile(addrs, sizes, 128)
        assert prof.dup.d_sorted.tolist() == [2]
        assert prof.dup.cum_w[-1] == 8  # size-weighted

    def test_adjacency_across_line_boundary_never_merges(self):
        # Second store starts exactly on a line boundary: different
        # queue entry, so no merge distance is recorded.
        addrs = np.asarray([120, 128], dtype=np.int64)
        sizes = np.asarray([8, 8], dtype=np.int64)
        prof = _build_pack_profile(addrs, sizes, 128)
        assert prof.merge.d_sorted.size == 0


class TestStatsHelpers:
    def test_line_geometry_runs_lines_pad(self):
        fp = IntervalSet.from_ranges([0, 250], [8, 10])
        geo = line_geometry(fp, 128)
        # [0,8) is one run; [250,260) crosses the 256 boundary: 2 runs.
        assert geo.runs == 3
        assert geo.lines == 3
        # run lengths 8, 6, 4 -> DW pad 0 + 2 + 0.
        assert geo.pad_bytes == 2

    def test_sector_expand_rounds_out(self):
        fp = IntervalSet.from_ranges([100], [4])
        assert sector_expand(fp, 32).total_bytes == 32

    def test_overlap_count(self):
        fp = IntervalSet.from_ranges([0, 1000], [100, 100])
        addrs = np.asarray([50, 500, 1099, 1100], dtype=np.int64)
        sizes = np.asarray([10, 10, 1, 50], dtype=np.int64)
        assert overlap_count(addrs, sizes, fp) == 2
