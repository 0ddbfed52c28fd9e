"""Interconnect topologies: switched PCIe trees and scaled-up fabrics.

Four topology families are provided:

* :func:`single_switch` -- the paper's 4-GPU testbed: every GPU hangs
  off one PCIe switch with a full-duplex x16 link.
* :func:`two_level_tree` -- the projected 16-GPU system of Sec. VI-B:
  leaf switches of ``fanout`` GPUs joined by a root switch.
* :func:`fat_tree` -- parameterized multi-level fat trees at 8-64+
  GPUs: switch levels are built bottom-up by ``fanout``-way grouping,
  and each uplink trunk aggregates enough parallel links to preserve
  (or deliberately oversubscribe, via ``oversubscription``) the
  bisection bandwidth of the subtree below it.
* :func:`switched_mesh` -- fully-switched multi-plane rail fabrics:
  every GPU attaches to every one of ``planes`` central switches and
  each GPU pair is deterministically pinned to one plane, NVSwitch
  style.

A :class:`Topology` owns all links and switches, routes messages along
the unique tree path, and aggregates link statistics for the metrics
layer.  ``networkx`` backs the structural representation so tests can
assert connectivity/path properties independently of the timing model.

Routing is fault-aware: when a link is permanently down (an armed
``LinkFail``), messages route around it where the graph offers an
alternate path -- including store-and-forward through a peer GPU on
NVSwitch-class topologies, the way collective libraries fall back to
proxy rings.  When no live path remains, :meth:`Topology.route` raises
:class:`~repro.faults.state.RouteBlockedError` and the system layer
accounts the message as dropped.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import networkx as nx

from ..faults.state import LinkDownError, RouteBlockedError
from ..registry import RegistryError
from ..registry import topologies as _registry
from .flowcontrol import CreditPool
from .link import Link, LinkStats
from .message import WireMessage
from .pcie import PCIE_GEN4, PCIeGeneration


@dataclass
class Topology:
    """A tree of switches carrying inter-GPU traffic.

    The object exposes a single :meth:`route` entry point used by the
    simulation engine; everything else is introspection for tests and
    reports.
    """

    n_gpus: int
    generation: PCIeGeneration
    graph: nx.Graph
    #: ``links[(a, b)]`` carries traffic from node ``a`` to node ``b``;
    #: nodes are "gpuN" and "swN" strings.
    links: dict[tuple[str, str], Link]
    forwarding_ns: float = 100.0
    #: Messages that were rerouted around a dead link this run.
    rerouted_messages: int = 0
    #: Structural facts the factory wants to expose to tests/reports
    #: (switch levels, oversubscription ratio, trunk multiplicity, hop
    #: bounds, ...).  Purely descriptive; routing never consults it.
    meta: dict = field(default_factory=dict)
    _paths: dict[tuple[int, int], list[str]] = field(default_factory=dict)
    _detours: dict[tuple, list[str] | None] = field(default_factory=dict)
    #: Links armed with outage windows that can turn permanent; cached
    #: so fault-free routing never scans the link table.
    _fail_links: tuple[tuple[tuple[str, str], Link], ...] = ()

    def _path(self, src: int, dst: int) -> list[str]:
        key = (src, dst)
        if key not in self._paths:
            self._paths[key] = nx.shortest_path(
                self.graph, f"gpu{src}", f"gpu{dst}"
            )
        return self._paths[key]

    # -- fault-aware path selection ---------------------------------

    def rebuild_fault_cache(self) -> None:
        """Re-scan links for armed outage windows.

        Called by :meth:`FaultInjector.arm`/``disarm`` and by
        :meth:`reset`; keeps :meth:`dead_edges_at` free for unfaulted
        topologies.
        """
        self._fail_links = tuple(
            (edge, link)
            for edge, link in self.links.items()
            if link.fault_state is not None and link.fault_state.down
        )
        self._detours.clear()

    def dead_edges_at(self, t: float) -> frozenset[tuple[str, str]]:
        """Directed edges whose link is permanently down at time ``t``."""
        if not self._fail_links:
            return frozenset()
        return frozenset(
            edge
            for edge, link in self._fail_links
            if link.fault_state.permanently_down_at(t)
        )

    def _live_path(
        self, src: int, dst: int, avoid: frozenset[tuple[str, str]]
    ) -> list[str] | None:
        """Shortest path avoiding ``avoid`` edges; ``None`` if cut off.

        Built on the directed link set, so one direction of a duplex
        pair can die while the other keeps carrying traffic.
        """
        if not avoid:
            return self._path(src, dst)
        key = (src, dst, avoid)
        if key not in self._detours:
            digraph = nx.DiGraph()
            digraph.add_nodes_from(self.graph.nodes)
            digraph.add_edges_from(e for e in self.links if e not in avoid)
            try:
                self._detours[key] = nx.shortest_path(
                    digraph, f"gpu{src}", f"gpu{dst}"
                )
            except nx.NetworkXNoPath:
                self._detours[key] = None
        return self._detours[key]

    def route(self, msg: WireMessage, ready_time: float) -> float:
        """Carry ``msg`` hop by hop; returns delivery time at ``msg.dst``.

        If a hop's link is (or goes) permanently down, the message is
        retransmitted end-to-end over an alternate path avoiding every
        link observed dead so far.  Bytes already serialized on earlier
        hops stay accounted on those links -- they really were sent.

        Raises
        ------
        RouteBlockedError
            When no live path to the destination remains.
        """
        if msg.src == msg.dst:
            raise ValueError("local traffic must not enter the interconnect")
        t = ready_time
        avoid = self.dead_edges_at(t)
        path = self._live_path(msg.src, msg.dst, avoid)
        if path is None:
            raise RouteBlockedError(
                msg.src, msg.dst, t, tuple(sorted("->".join(e) for e in avoid))
            )
        if avoid and path != self._path(msg.src, msg.dst):
            # Known-dead links are avoided up front; that is still a
            # detour worth accounting, not just mid-flight escapes.
            self.rerouted_messages += 1
        while True:
            try:
                tt = t
                for hop, (a, b) in enumerate(zip(path, path[1:])):
                    if hop > 0:
                        tt += self.forwarding_ns
                    _, tt = self.links[(a, b)].transmit(msg, tt)
                return tt
            except LinkDownError as exc:
                t = exc.at_ns
                a, _, b = exc.link_name.partition("->")
                avoid = (avoid | self.dead_edges_at(t)) | {(a, b)}
                path = self._live_path(msg.src, msg.dst, avoid)
                if path is None:
                    raise RouteBlockedError(
                        msg.src,
                        msg.dst,
                        t,
                        tuple(sorted("->".join(e) for e in avoid)),
                    ) from exc
                self.rerouted_messages += 1

    def egress_stats(self, gpu: int) -> LinkStats:
        """Aggregated traffic counters of ``gpu``'s outgoing link(s)."""
        total = LinkStats()
        for neighbor in self.graph.neighbors(f"gpu{gpu}"):
            stats = self.links[(f"gpu{gpu}", neighbor)].stats
            total.messages += stats.messages
            total.payload_bytes += stats.payload_bytes
            total.overhead_bytes += stats.overhead_bytes
            total.busy_time_ns += stats.busy_time_ns
        return total

    def all_stats(self) -> dict[tuple[str, str], LinkStats]:
        return {edge: link.stats for edge, link in self.links.items()}

    def total_wire_bytes(self) -> int:
        return sum(s.wire_bytes for s in self.all_stats().values())

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a tracer on every link."""
        for link in self.links.values():
            link.tracer = tracer

    def reset(self) -> None:
        for link in self.links.values():
            link.reset()
        self.rerouted_messages = 0
        self.rebuild_fault_cache()


def _add_duplex(
    links: dict[tuple[str, str], Link],
    graph: nx.Graph,
    a: str,
    b: str,
    generation: PCIeGeneration,
    propagation_ns: float,
    with_credits: bool,
    error_rate: float = 0.0,
    width: int = 1,
) -> None:
    """Add a duplex link pair; ``width`` parallel physical links are
    modeled as one logical link of ``width``-fold bandwidth (striped
    trunks, the way switch vendors aggregate uplink ports)."""
    graph.add_edge(a, b)
    for u, v in ((a, b), (b, a)):
        credits = CreditPool() if with_credits and v.startswith("gpu") else None
        links[(u, v)] = Link(
            name=f"{u}->{v}",
            bytes_per_ns=generation.bytes_per_ns * width,
            propagation_ns=propagation_ns,
            credits=credits,
            error_rate=error_rate,
        )


@_registry.register("single_switch")
def single_switch(
    n_gpus: int = 4,
    generation: PCIeGeneration = PCIE_GEN4,
    propagation_ns: float = 50.0,
    with_credits: bool = False,
    error_rate: float = 0.0,
) -> Topology:
    """The paper's testbed: ``n_gpus`` GPUs under one PCIe switch."""
    check_topology_args(single_switch, n_gpus)
    graph: nx.Graph = nx.Graph()
    links: dict[tuple[str, str], Link] = {}
    for i in range(n_gpus):
        _add_duplex(
            links, graph, f"gpu{i}", "sw0", generation, propagation_ns,
            with_credits, error_rate,
        )
    return Topology(n_gpus=n_gpus, generation=generation, graph=graph, links=links)


@_registry.register("fully_connected")
def fully_connected(
    n_gpus: int = 4,
    generation: PCIeGeneration = PCIE_GEN4,
    propagation_ns: float = 50.0,
    with_credits: bool = False,
    error_rate: float = 0.0,
) -> Topology:
    """NVSwitch-class connectivity: a dedicated duplex link per GPU pair.

    Models NVLink/NVSwitch systems where every GPU reaches every peer
    in one hop with no shared egress port.  Used for what-if studies
    beyond the paper's switched-PCIe testbed (the per-packet byte costs
    still come from whichever protocol the system is built with).  The
    pairwise links also give fault-injection experiments an alternate
    path: a dead link reroutes store-and-forward through a peer GPU.
    """
    check_topology_args(fully_connected, n_gpus)
    graph: nx.Graph = nx.Graph()
    links: dict[tuple[str, str], Link] = {}
    for i in range(n_gpus):
        graph.add_node(f"gpu{i}")
    for i in range(n_gpus):
        for j in range(i + 1, n_gpus):
            _add_duplex(
                links,
                graph,
                f"gpu{i}",
                f"gpu{j}",
                generation,
                propagation_ns,
                with_credits,
                error_rate,
            )
    return Topology(n_gpus=n_gpus, generation=generation, graph=graph, links=links)


@_registry.register("two_level_tree")
@_registry.register("two_level")
def two_level_tree(
    n_gpus: int = 16,
    fanout: int = 4,
    generation: PCIeGeneration = PCIE_GEN4,
    propagation_ns: float = 50.0,
    with_credits: bool = False,
    error_rate: float = 0.0,
) -> Topology:
    """A 16-GPU-class system: leaf switches joined by a root switch."""
    check_topology_args(two_level_tree, n_gpus, fanout=fanout)
    graph: nx.Graph = nx.Graph()
    links: dict[tuple[str, str], Link] = {}
    n_leaves = n_gpus // fanout
    for leaf in range(n_leaves):
        sw = f"sw{leaf + 1}"
        for j in range(fanout):
            gpu = leaf * fanout + j
            _add_duplex(
                links, graph, f"gpu{gpu}", sw, generation, propagation_ns,
                with_credits, error_rate,
            )
        _add_duplex(links, graph, sw, "sw0", generation, propagation_ns, False)
    return Topology(n_gpus=n_gpus, generation=generation, graph=graph, links=links)


@_registry.register("fat_tree")
def fat_tree(
    n_gpus: int = 16,
    fanout: int = 4,
    oversubscription: float = 1.0,
    generation: PCIeGeneration = PCIE_GEN4,
    propagation_ns: float = 50.0,
    with_credits: bool = False,
    error_rate: float = 0.0,
) -> Topology:
    """A multi-level fat tree scaling to 8/16/32/64+ GPUs.

    GPUs are grouped ``fanout`` at a time under leaf switches; switch
    levels are then built bottom-up by repeated ``fanout``-way grouping
    until a single root remains.  The uplink trunk of a switch at level
    ``l`` (leaves are level 1) aggregates
    ``max(1, round(fanout**l / oversubscription))`` parallel links --
    ``oversubscription=1`` preserves the full bisection bandwidth of
    the subtree below (a true fat tree), larger values thin the upper
    trunks the way cost-reduced deployments do.

    Worst-case GPU-to-GPU hop count is ``2 * levels`` link traversals
    (up to the root and back down); ``meta`` records the level count,
    per-level trunk multiplicity, and hop bound for tests.

    Batch-transport note: leaf links serve different hop positions for
    intra-leaf vs. cross-leaf traffic, but the tree's route adjacency
    is acyclic (up-edges order by ascending level, down-edges by
    descending level), so the event-ordered plan of ``repro.perf``
    keeps fat trees on the vectorized fast path at every scale.
    """
    check_topology_args(
        fat_tree, n_gpus, fanout=fanout, oversubscription=oversubscription
    )
    graph: nx.Graph = nx.Graph()
    links: dict[tuple[str, str], Link] = {}

    # Level 1: GPUs under leaf switches (ceil-divided; the last leaf
    # may be partially populated when fanout does not divide n_gpus).
    n_leaves = -(-n_gpus // fanout)
    leaves = [f"sw1_{i}" for i in range(n_leaves)]
    for g in range(n_gpus):
        _add_duplex(
            links, graph, f"gpu{g}", leaves[g // fanout], generation,
            propagation_ns, with_credits, error_rate,
        )

    # Upper levels: group switches fanout at a time until one remains.
    trunk_width: dict[int, int] = {}
    level, nodes = 1, leaves
    while len(nodes) > 1:
        width = max(1, round(fanout**level / oversubscription))
        trunk_width[level] = width
        parents = [
            f"sw{level + 1}_{i}" for i in range(-(-len(nodes) // fanout))
        ]
        for i, node in enumerate(nodes):
            _add_duplex(
                links, graph, node, parents[i // fanout], generation,
                propagation_ns, False, error_rate, width=width,
            )
        level += 1
        nodes = parents

    return Topology(
        n_gpus=n_gpus,
        generation=generation,
        graph=graph,
        links=links,
        meta={
            "kind": "fat_tree",
            "levels": level,
            "fanout": fanout,
            "oversubscription": oversubscription,
            "trunk_width": trunk_width,
            "max_hops": 2 * level,
            "n_switches": sum(
                1 for n in graph.nodes if not n.startswith("gpu")
            ),
        },
    )


@_registry.register("switched_mesh")
def switched_mesh(
    n_gpus: int = 8,
    planes: int = 2,
    generation: PCIeGeneration = PCIE_GEN4,
    propagation_ns: float = 50.0,
    with_credits: bool = False,
    error_rate: float = 0.0,
) -> Topology:
    """A fully-switched multi-plane fabric (NVSwitch-style rails).

    Every GPU attaches to all ``planes`` central switches; every pair
    is two hops apart on every plane.  Each ordered GPU pair is pinned
    to plane ``(src + dst) % planes`` up front -- deterministic,
    symmetric (both directions of a pair share a plane), and spreading
    pairs across rails the way NVSwitch port maps stripe traffic.  The
    pin is installed in the route cache, so routing, the vectorized
    batch transport, and the event path all agree on it; fault-aware
    rerouting still detours through the surviving planes when a pinned
    link dies.
    """
    check_topology_args(switched_mesh, n_gpus, planes=planes)
    graph: nx.Graph = nx.Graph()
    links: dict[tuple[str, str], Link] = {}
    for p in range(planes):
        for g in range(n_gpus):
            _add_duplex(
                links, graph, f"gpu{g}", f"sw{p}", generation,
                propagation_ns, with_credits, error_rate,
            )
    paths = {
        (s, d): [f"gpu{s}", f"sw{(s + d) % planes}", f"gpu{d}"]
        for s in range(n_gpus)
        for d in range(n_gpus)
        if s != d
    }
    return Topology(
        n_gpus=n_gpus,
        generation=generation,
        graph=graph,
        links=links,
        _paths=paths,
        meta={
            "kind": "switched_mesh",
            "planes": planes,
            "max_hops": 2,
            "n_switches": planes,
        },
    )


def check_topology_args(factory, n_gpus: int, **params) -> None:
    """Raise the ``ValueError`` ``factory`` raises for these arguments.

    Builds neither the graph nor its routes: each registered factory
    calls this first, and :class:`~repro.run.RunSpec` calls it for
    every multi-GPU spec, so a shape no run can build fails when the
    spec is made.  ``params`` are factory keywords; the ones left out
    take the factory's defaults.  Factories registered elsewhere are
    checked for ``n_gpus`` alone.
    """
    if n_gpus < 2:
        raise ValueError("a multi-GPU topology needs at least 2 GPUs")
    bound = inspect.signature(factory).bind(n_gpus=n_gpus, **params)
    bound.apply_defaults()
    args = bound.arguments
    if factory is two_level_tree:
        fanout = args["fanout"]
        if fanout < 1 or n_gpus % fanout:
            raise ValueError(
                f"n_gpus={n_gpus} must be a multiple of fanout={fanout}"
            )
    elif factory is fat_tree:
        if args["fanout"] < 2:
            raise ValueError(f"fanout must be >= 2, got {args['fanout']}")
        if args["oversubscription"] < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1 (1 = full bisection), "
                f"got {args['oversubscription']}"
            )
    elif factory is switched_mesh and args["planes"] < 1:
        raise ValueError(f"planes must be >= 1, got {args['planes']}")


def make_topology(
    kind: str | None,
    n_gpus: int,
    generation: PCIeGeneration = PCIE_GEN4,
    with_credits: bool = False,
    error_rate: float = 0.0,
    **params,
) -> Topology | None:
    """Build a registered topology by name (``None`` for one GPU).

    ``kind`` defaults to ``single_switch``; ``params`` are
    factory-specific keywords (``fanout``, ``planes``, ...).  The DES
    system and the analytical tier both build their fabric here.  An
    unknown kind raises :class:`ValueError` with the registry's
    suggestions.
    """
    if n_gpus <= 1:
        return None
    try:
        factory = _registry.resolve(kind or "single_switch")
    except RegistryError as exc:
        raise ValueError(str(exc)) from None
    return factory(
        n_gpus=n_gpus,
        generation=generation,
        with_credits=with_credits,
        error_rate=error_rate,
        **params,
    )
