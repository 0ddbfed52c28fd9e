"""Unit tier for the event-ordered transport plan.

The differential test drives the same randomized message stream through
``transmit_flat`` and through the scalar ``Topology.route`` engine
order (one full-route walk per message, in global issue order) and
requires bit-identical delivery times and link statistics -- on a
hop-overlapping fat tree, the exact shape the plan generalizes to.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.interconnect.message import MessageKind, WireMessage
from repro.interconnect.topology import fat_tree, switched_mesh, two_level_tree
from repro.perf.transport import TransportPlan, build_plan, transmit_flat


def _random_stream(n_gpus: int, n_msgs: int, seed: int):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_gpus, n_msgs)
    dst = (src + rng.integers(1, n_gpus, n_msgs)) % n_gpus
    issue = np.sort(rng.uniform(0.0, 5_000.0, n_msgs))
    payload = rng.integers(4, 257, n_msgs)
    overhead = rng.integers(8, 33, n_msgs)
    return (
        src.astype(np.int64),
        dst.astype(np.int64),
        issue.astype(np.float64),
        payload.astype(np.int64),
        overhead.astype(np.int64),
    )


def _scalar_deliveries(topology, src, dst, issue, payload, overhead):
    out = np.empty(issue.size, dtype=np.float64)
    for i in range(issue.size):
        msg = WireMessage(
            src=int(src[i]),
            dst=int(dst[i]),
            payload_bytes=int(payload[i]),
            overhead_bytes=int(overhead[i]),
            kind=MessageKind.STORE,
            issue_time=float(issue[i]),
        )
        out[i] = topology.route(msg, float(issue[i]))
    return out


@pytest.mark.parametrize(
    "factory,kwargs",
    [
        (fat_tree, {"n_gpus": 8, "fanout": 2}),
        (fat_tree, {"n_gpus": 16, "fanout": 4}),
        (two_level_tree, {"n_gpus": 8}),
        (switched_mesh, {"n_gpus": 8, "planes": 2}),
    ],
)
def test_transmit_flat_matches_scalar_routing(factory, kwargs):
    n_gpus = kwargs["n_gpus"]
    src, dst, issue, payload, overhead = _random_stream(n_gpus, 400, seed=11)

    batch_topo = factory(**kwargs)
    plan = build_plan(batch_topo)
    assert plan is not None
    fast = transmit_flat(
        batch_topo,
        plan,
        src,
        dst,
        issue,
        payload + overhead,
        payload,
        overhead,
    )

    scalar_topo = factory(**kwargs)
    scalar = _scalar_deliveries(scalar_topo, src, dst, issue, payload, overhead)

    # Bit-identical timings and identical per-link accounting.
    assert fast.tobytes() == scalar.tobytes()
    fast_stats = batch_topo.all_stats()
    scalar_stats = scalar_topo.all_stats()
    assert fast_stats.keys() == scalar_stats.keys()
    for edge, stats in scalar_stats.items():
        got = fast_stats[edge]
        assert (got.messages, got.wire_bytes) == (
            stats.messages,
            stats.wire_bytes,
        )
        assert got.busy_time_ns.hex() == stats.busy_time_ns.hex()


def test_link_order_respects_route_adjacency():
    plan = build_plan(fat_tree(n_gpus=16, fanout=2))
    assert plan is not None
    position = {edge: i for i, edge in enumerate(plan.link_order)}
    for edges in plan.routes.values():
        for prev, nxt in zip(edges, edges[1:]):
            assert position[prev] < position[nxt]


class _CyclicRoutes:
    """A fake topology whose route adjacency is cyclic."""

    n_gpus = 2
    forwarding_ns = 10.0
    links: dict = {}

    def _path(self, s, d):
        # (0, 1) walks a->b->c; (1, 0) walks b->c->a->b, so (a, b)
        # precedes (b, c) on one route and follows it on the other.
        return ["a", "b", "c"] if (s, d) == (0, 1) else ["b", "c", "a", "b"]


def test_cyclic_route_adjacency_refuses_plan():
    assert build_plan(_CyclicRoutes()) is None


def test_plan_shape_on_mesh():
    plan = build_plan(switched_mesh(n_gpus=4, planes=2))
    assert isinstance(plan, TransportPlan)
    used = {e for edges in plan.routes.values() for e in edges}
    assert set(plan.link_order) == used
    assert len(plan.link_order) == len(used)
