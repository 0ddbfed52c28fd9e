"""Topology routing tests."""

import networkx as nx
import pytest

from repro.interconnect.message import WireMessage
from repro.interconnect.pcie import PCIE_GEN4
from repro.interconnect.topology import (
    fully_connected,
    single_switch,
    two_level_tree,
)


def msg(src, dst, payload=3200, overhead=0):
    return WireMessage(src=src, dst=dst, payload_bytes=payload, overhead_bytes=overhead)


class TestSingleSwitch:
    def test_structure(self):
        topo = single_switch(4)
        assert topo.n_gpus == 4
        assert topo.graph.number_of_nodes() == 5
        assert all(topo.graph.has_edge(f"gpu{i}", "sw0") for i in range(4))

    def test_duplex_links(self):
        topo = single_switch(4)
        assert ("gpu0", "sw0") in topo.links and ("sw0", "gpu0") in topo.links

    def test_route_and_stats(self):
        topo = single_switch(4, generation=PCIE_GEN4)
        t = topo.route(msg(0, 1), 0.0)
        assert t > 0
        assert topo.egress_stats(0).messages == 1
        assert topo.total_wire_bytes() == 2 * 3200  # up + down links

    def test_reset(self):
        topo = single_switch(4)
        topo.route(msg(0, 1), 0.0)
        topo.reset()
        assert topo.total_wire_bytes() == 0

    def test_rejects_single_gpu(self):
        with pytest.raises(ValueError):
            single_switch(1)

    def test_rejects_local_route(self):
        with pytest.raises(ValueError):
            single_switch(4).route(msg(2, 2), 0.0)

    def test_rejects_out_of_range_route(self):
        with pytest.raises(nx.NodeNotFound):
            single_switch(4).route(msg(0, 9), 0.0)

    # 3200 B at Gen4's 32 B/ns is 100 ns per link; with no propagation
    # delay a route is up link + switch forwarding + down link.

    def test_route_time(self):
        topo = single_switch(4, propagation_ns=0.0)
        assert topo.forwarding_ns == 100.0
        assert topo.route(msg(0, 1), 0.0) == pytest.approx(300.0)

    def test_destination_contention(self):
        topo = single_switch(4, propagation_ns=0.0)
        d1 = topo.route(msg(0, 3), 0.0)
        d2 = topo.route(msg(1, 3), 0.0)
        # Both serialize on GPU 3's down link.
        assert d2 == pytest.approx(d1 + 100.0)

    def test_distinct_destinations_parallel(self):
        topo = single_switch(4, propagation_ns=0.0)
        d1 = topo.route(msg(0, 2), 0.0)
        d2 = topo.route(msg(1, 3), 0.0)
        assert d2 == pytest.approx(d1)


class TestFullyConnected:
    def test_structure(self):
        topo = fully_connected(4)
        assert topo.graph.number_of_nodes() == 4
        assert topo.graph.number_of_edges() == 6
        assert nx.diameter(topo.graph) == 1

    def test_single_hop_faster_than_switched(self):
        flat = fully_connected(4)
        tree = single_switch(4)
        t_flat = flat.route(msg(0, 1), 0.0)
        t_tree = tree.route(msg(0, 1), 0.0)
        assert t_flat < t_tree  # one serialization instead of two

    def test_no_destination_port_contention(self):
        """Dedicated pairwise links: concurrent senders don't queue."""
        topo = fully_connected(4)
        t1 = topo.route(msg(0, 3), 0.0)
        t2 = topo.route(msg(1, 3), 0.0)
        assert t2 == pytest.approx(t1)

    def test_egress_stats_aggregate_all_peers(self):
        topo = fully_connected(4)
        topo.route(msg(0, 1), 0.0)
        topo.route(msg(0, 2), 0.0)
        stats = topo.egress_stats(0)
        assert stats.messages == 2
        assert stats.payload_bytes == 6400

    def test_rejects_single_gpu(self):
        with pytest.raises(ValueError):
            fully_connected(1)


class TestTwoLevelTree:
    def test_structure(self):
        topo = two_level_tree(16, fanout=4)
        assert topo.n_gpus == 16
        # 16 GPUs + 4 leaf switches + 1 root.
        assert topo.graph.number_of_nodes() == 21
        assert nx.is_tree(topo.graph)

    def test_same_leaf_two_hops(self):
        topo = two_level_tree(16, fanout=4)
        path = nx.shortest_path(topo.graph, "gpu0", "gpu1")
        assert len(path) == 3  # gpu0 -> sw1 -> gpu1

    def test_cross_leaf_goes_via_root(self):
        topo = two_level_tree(16, fanout=4)
        path = nx.shortest_path(topo.graph, "gpu0", "gpu15")
        assert "sw0" in path

    def test_cross_leaf_slower_than_same_leaf(self):
        topo = two_level_tree(16, fanout=4)
        t_near = topo.route(msg(0, 1), 0.0)
        topo.reset()
        t_far = topo.route(msg(0, 15), 0.0)
        assert t_far > t_near

    def test_fanout_must_divide(self):
        with pytest.raises(ValueError):
            two_level_tree(10, fanout=4)
