"""Batch transport: bulk link serialization without per-message events.

The event path takes one message at a time in issue order and routes
it hop by hop through :meth:`Link.transmit`.  That is byte-exact but
pays Python dispatch per message.  This module computes the *same*
timings with per-link batched arithmetic.

The key observation is that the event path walks a message's *whole*
route at its issue time: ``Topology.route`` hands the message to every
link on the path before the next message is taken.  Per directed link,
the scalar call order is therefore the **global issue order** of the
messages crossing it -- not their arrival order at that link.  The batch path reproduces
exactly that:

1. All of an iteration's message batches are flattened into parallel
   arrays and stable-sorted by issue time (preserving emission order
   for ties) -- the same rows, in the same order, that the event path
   walks.
2. :func:`build_plan` records every pair route and orders the directed
   links *topologically* over the route-adjacency DAG (link ``P``
   precedes link ``L`` whenever ``P`` immediately precedes ``L`` on
   some route).  For trees and meshes this DAG is acyclic: up-edges
   sort by ascending level, down-edges by descending level.
3. :func:`transmit_flat` visits each used link once, in that order,
   calling :meth:`Link.transmit_batch` with the link's messages merged
   in ascending flat index -- i.e. global issue order.  Messages at
   hop position > 0 on a link first gain ``forwarding_ns``
   element-wise, the same float addition the scalar route performs.

Because every predecessor link on a message's route has been fully
processed before its next link runs, each ``transmit_batch`` sees the
same ready times, in the same call order, as the event path -- for
*any* topology whose route adjacency is acyclic, including multi-level
fat trees where a leaf link serves hop 1 for intra-leaf traffic and
hop 3 for cross-leaf traffic.  ``build_plan`` returns ``None`` (and
the system falls back to the event-driven path) only when the
adjacency graph genuinely contains a cycle.

Equally, anything that makes per-message transmission stateful beyond
the busy-time chain -- flow-control credits, armed fault schedules,
error-rate replay RNGs, tracers -- disqualifies the batch path; see
:func:`links_eligible`.  The float arithmetic inside the batch is
element-for-element the scalar arithmetic: each link's busy chain is
accumulated busy period by busy period in the scalar order, and
checked against the scalar recurrence, so results are byte-identical,
not just close.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..interconnect.message import KINDS_BY_CODE
from ..trace.ids import stable_argsort
from .batch import FINEPACK_CODE, PACKED_KIND_CODES

Edge = tuple[str, str]

#: O(1) membership test for "kinds that carry packed stores", indexed
#: by the uint8 kind code (hoisted out of :func:`drain_and_record`).
_PACKED_KIND_LUT = np.zeros(256, dtype=bool)
_PACKED_KIND_LUT[PACKED_KIND_CODES] = True


def links_eligible(topology) -> bool:
    """Whether every link can be timed by the pure busy-chain model."""
    for link in topology.links.values():
        if (
            link.credits is not None
            or link.fault_state is not None
            or link.tracer is not None
            or link._rng is not None
        ):
            return False
    return True


@dataclass(frozen=True)
class TransportPlan:
    """Static per-topology routing for the batch transport.

    Attributes
    ----------
    routes:
        Fault-free route (directed edge tuple) per ordered GPU pair.
    link_order:
        Every directed link appearing in a route, topologically ordered
        over the route-adjacency DAG: by the time a link is processed,
        every link feeding into it on any route is already done.
    """

    routes: dict[tuple[int, int], tuple[Edge, ...]]
    link_order: tuple[Edge, ...]


def build_plan(topology) -> TransportPlan | None:
    """Routes plus a topological link order, or ``None`` on a cycle.

    The only structural reason to refuse is a cycle in the
    route-adjacency graph (link A immediately before B on one route
    and B before A on another) -- impossible for tree and mesh
    topologies, where up-edges order by ascending level and down-edges
    by descending level.
    """
    routes: dict[tuple[int, int], tuple[Edge, ...]] = {}
    # Successors in first-seen order (dict, not set: deterministic
    # iteration) and in-degrees for Kahn's algorithm.
    succ: dict[Edge, dict[Edge, None]] = {}
    indeg: dict[Edge, int] = {}
    for s in range(topology.n_gpus):
        for d in range(topology.n_gpus):
            if s == d:
                continue
            nodes = topology._path(s, d)
            edges = tuple(zip(nodes, nodes[1:]))
            routes[(s, d)] = edges
            for edge in edges:
                indeg.setdefault(edge, 0)
                succ.setdefault(edge, {})
            for prev, nxt in zip(edges, edges[1:]):
                if nxt not in succ[prev]:
                    succ[prev][nxt] = None
                    indeg[nxt] += 1
    queue = deque(e for e, deg in indeg.items() if deg == 0)
    order: list[Edge] = []
    while queue:
        edge = queue.popleft()
        order.append(edge)
        for nxt in succ[edge]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    if len(order) != len(indeg):
        # Route adjacency contains a cycle: no link order can reproduce
        # the scalar interleaving in one pass per link.
        return None
    return TransportPlan(routes=routes, link_order=tuple(order))


def transmit_flat(
    topology,
    plan: TransportPlan,
    src: np.ndarray,
    dst: np.ndarray,
    issue: np.ndarray,
    wire: np.ndarray,
    payload: np.ndarray,
    overhead: np.ndarray,
) -> np.ndarray:
    """Serialize pre-sorted messages through the fabric; returns
    delivery times aligned with the inputs.

    All arrays must already be in global issue order (stable-sorted by
    issue time) -- the order the event path processes them in.
    Each used link is visited once, in the plan's topological order,
    with its messages merged in ascending flat index (= issue order);
    see the module docstring for why that reproduces the event
    path's per-link call sequence exactly.
    """
    ready = np.array(issue, dtype=np.float64, copy=True)
    if ready.size == 0:
        return ready
    if bool((src == dst).any()):
        # Match Topology.route's contract for self-traffic.
        raise ValueError("local traffic must not enter the interconnect")
    n_gpus = topology.n_gpus
    n_keys = n_gpus * n_gpus
    keys = src * n_gpus + dst
    # Messages grouped by (src, dst) pair, ascending within each group:
    # one stable sort, then each pair is a slice of it.
    by_pair = stable_argsort(keys, n_keys)
    ends = np.cumsum(np.bincount(keys, minlength=n_keys)).tolist()
    # Per-link segments: (indices, hop position on that route).  A
    # message crosses a given link at most once (routes are simple
    # paths), so the merged indices below are unique.
    by_link: dict[Edge, list[tuple[np.ndarray, int]]] = {}
    start = 0
    for key, end in enumerate(ends):
        if end == start:
            continue
        idx = by_pair[start:end]
        start = end
        for hop, edge in enumerate(plan.routes[divmod(key, n_gpus)]):
            by_link.setdefault(edge, []).append((idx, hop))
    forwarding = topology.forwarding_ns
    for edge in plan.link_order:
        parts = by_link.get(edge)
        if parts is None:
            continue
        # Switch forwarding is charged per hop > 0 *before* the link
        # transmit, exactly like the scalar Topology.route.
        for idx, hop in parts:
            if hop > 0:
                ready[idx] += forwarding
        if len(parts) == 1:
            idx = parts[0][0]
        else:
            # Merged ascending indices == global issue order, which is
            # the order the event path calls this link in.
            idx = np.sort(np.concatenate([p[0] for p in parts]))
        ready[idx] = topology.links[edge].transmit_batch(
            ready[idx], wire[idx], payload[idx], overhead[idx]
        )
    return ready


def drain_and_record(
    deliveries: np.ndarray,
    dst: np.ndarray,
    payload: np.ndarray,
    packed: np.ndarray,
    kinds: np.ndarray,
    counts: np.ndarray,
    depacketizers: list,
    drain_rates: np.ndarray,
    packets,
) -> float:
    """Ingress-drain every delivered message and fold packet stats.

    Arrays are in global issue order; ``counts`` holds each message's
    range count, a FinePack packet's sub-transactions.  Returns the
    latest drain completion time (``-inf`` when there are no messages).
    Mirrors the event path: each destination's FinePack packets pass
    its de-packetizer's bounded buffer in issue order, as columns
    (:meth:`~repro.core.depacketizer.Depacketizer.admit_columns`);
    everything else drains at the destination HBM rate;
    ``packets.record`` side effects are reproduced in the same order.
    """
    n = deliveries.size
    if n == 0:
        return float("-inf")
    latest = float("-inf")
    finepack = kinds == FINEPACK_CODE
    nonfp = np.flatnonzero(~finepack)
    if nonfp.size:
        latest = float(
            (deliveries[nonfp] + payload[nonfp] / drain_rates[dst[nonfp]]).max()
        )
    fp = np.flatnonzero(finepack)
    if fp.size:
        # Each destination's packets, in issue order: one slice each.
        n_dsts = len(depacketizers)
        fp = fp[stable_argsort(dst[fp], n_dsts)]
        ends = np.cumsum(np.bincount(dst[fp], minlength=n_dsts)).tolist()
        arrival, data = deliveries[fp], payload[fp]
        # Every de-packetizer of a run decodes with the one FinePack
        # config, so one call sizes every packet.
        fp_entries = depacketizers[0].entries(counts[fp], data)
        drained = np.empty(fp.size)
        for d, lo, hi in zip(range(n_dsts), [0, *ends], ends):
            if lo < hi:
                drained[lo:hi] = depacketizers[d].admit_columns(
                    arrival[lo:hi], fp_entries[lo:hi], data[lo:hi]
                )
        latest = max(latest, float(drained.max()))
    # PacketStats.record equivalents, preserving issue order where the
    # scalar structures are order-sensitive (by_kind first-seen order,
    # packed_counts sequence).
    packets.messages += n
    packets.stores_carried += int(packed.sum())
    codes, first_seen, counts = np.unique(
        kinds, return_index=True, return_counts=True
    )
    for i in np.argsort(first_seen, kind="stable").tolist():
        kind = KINDS_BY_CODE[int(codes[i])]
        packets.by_kind[kind] = packets.by_kind.get(kind, 0) + int(counts[i])
    packs = packed[_PACKED_KIND_LUT[kinds]]
    if packs.size:
        packets.packed_counts.extend(packs.tolist())
    return latest
