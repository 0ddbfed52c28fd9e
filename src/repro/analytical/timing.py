"""Topology serialization/hop/drain terms for the analytical tier.

The byte predictions of :mod:`.protocol` are (near-)exact; the timing
terms here are deliberately first-order -- they replace the DES's
per-message event interleaving with per-link *fluid* loads:

* every directed link accumulates the wire bytes of all pairs routed
  over it (routes come from the real :class:`Topology`, built by the
  same :func:`~repro.interconnect.topology.make_topology` call as the
  DES's, so hop counts, trunk widths and plane pinning are exact);
* a link finishes an iteration's traffic no earlier than its last
  message is issued and no earlier than it can serialize its total
  load at full rate (``max(last_issue, first_issue + B/bw)``);
* a pair's last delivery adds the per-hop propagation/forwarding pipe
  and a store-and-forward serialization term for the non-bottleneck
  hops, then the receiver drains the last message's payload at HBM
  rate.

This predicts iteration/total times and per-link utilization without
an event loop; it ignores flow-control credits, injected faults and
link error replays (specs carrying those belong at DES fidelity -- the
model layer rejects fault scenarios outright).  The calibration
harness (``tools/calibrate_analytical.py``) tracks the resulting time
error separately from the byte error; see ``docs/analytical.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.metrics import RunMetrics
from .protocol import PairCost


@dataclass
class _LinkLoad:
    """One directed link's traffic within one iteration."""

    wire_bytes: int = 0
    messages: int = 0
    first_issue: float = float("inf")
    last_issue: float = float("-inf")


@dataclass(frozen=True)
class IterationLoad:
    """One iteration's resolved fabric activity, in time *relative to
    the iteration start*.

    Purely a function of the iteration's traffic, not of when the
    iteration begins -- identical steady-state iterations share one
    instance through the model layer's iteration cache.
    """

    #: ``(edge, wire_bytes, messages, serialization_ns)`` per edge.
    edges: tuple
    #: Latest delivery+drain completion (``-inf`` with no traffic).
    rel_latest: float


class FabricTiming:
    """Per-link fluid load accounting across iterations.

    Usage: :meth:`compute_iteration` turns one iteration's (src, dst)
    pair costs -- with issue times relative to the iteration start --
    into an :class:`IterationLoad`; :meth:`apply` folds a load into the
    running totals (possibly repeatedly, for cached iterations);
    :meth:`finalize` fills ``RunMetrics.links``/``link_stats`` exactly
    the way ``_collect_fabric_stats`` does.
    """

    def __init__(self, topology, drain_bytes_per_ns: float) -> None:
        self.topology = topology
        self.drain = drain_bytes_per_ns
        #: edge -> [wire_bytes, messages, busy_time_ns] over the run.
        self._totals: dict[tuple[str, str], list] = {}

    def compute_iteration(self, pairs: list) -> IterationLoad:
        """Resolve ``(src, dst, cost, first_rel, last_rel)`` pairs.

        All times are relative to the iteration start; the whole
        timing model is translation-invariant, so the result shifts
        with the iteration verbatim.
        """
        links = self.topology.links
        loads: dict[tuple[str, str], _LinkLoad] = {}
        recs = []
        for src, dst, cost, first_issue, last_issue in pairs:
            if cost.messages == 0:
                continue
            path = self.topology._path(src, dst)
            edges = list(zip(path, path[1:]))
            for edge in edges:
                load = loads.get(edge)
                if load is None:
                    load = loads[edge] = _LinkLoad()
                load.wire_bytes += cost.wire_bytes
                load.messages += cost.messages
                load.first_issue = min(load.first_issue, first_issue)
                load.last_issue = max(load.last_issue, last_issue)
            recs.append((edges, cost, last_issue))
        # Fluid finish time of each link's aggregate load.
        finish: dict[tuple[str, str], float] = {}
        edge_rows = []
        for edge, load in loads.items():
            serial = load.wire_bytes / links[edge].bytes_per_ns
            finish[edge] = max(load.last_issue, load.first_issue + serial)
            edge_rows.append((edge, load.wire_bytes, load.messages, serial))
        latest = float("-inf")
        for edges, cost, last_issue in recs:
            mean_wire = cost.wire_bytes / cost.messages
            mean_payload = cost.payload / cost.messages
            arrival = max(last_issue, *(finish[e] for e in edges))
            for i, edge in enumerate(edges):
                link = links[edge]
                arrival += link.propagation_ns
                if i > 0:
                    # Store-and-forward of the last message through the
                    # non-bottleneck hops plus switch forwarding.
                    arrival += self.topology.forwarding_ns
                    arrival += mean_wire / link.bytes_per_ns
            arrival += mean_payload / self.drain
            latest = max(latest, arrival)
        return IterationLoad(edges=tuple(edge_rows), rel_latest=latest)

    def apply(self, load: IterationLoad) -> None:
        for edge, wire, msgs, serial in load.edges:
            total = self._totals.get(edge)
            if total is None:
                total = self._totals[edge] = [0, 0, 0.0]
            total[0] += wire
            total[1] += msgs
            total[2] += serial

    def finalize(self, metrics: RunMetrics, total_ns: float) -> None:
        """Fill per-link utilization/stats (every link, traffic or not)."""
        zero_faults = {
            "replays": 0,
            "replay_bytes": 0,
            "replay_saturations": 0,
            "retransmits": 0,
            "fault_stall_ns": 0.0,
        }
        for (a, b) in self.topology.links:
            name = f"{a}->{b}"
            wire, msgs, busy = self._totals.get((a, b), (0, 0, 0.0))
            if total_ns > 0:
                metrics.links.by_link[name] = busy / total_ns
            metrics.link_stats[name] = {
                "messages": msgs,
                "wire_bytes": wire,
                "busy_time_ns": busy,
                "utilization": busy / total_ns if total_ns > 0 else 0.0,
                **zero_faults,
            }
