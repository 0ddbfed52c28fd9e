"""Compose phase statistics, protocol costs and timing into RunMetrics.

:func:`predict_metrics` is the analytical tier's counterpart of
:meth:`MultiGPUSystem.run`: it walks the trace's iterations in order,
but instead of scheduling per-message events it computes each
(source phase, destination) pair's wire traffic in closed form
(:mod:`.protocol`), classifies the delivered bytes with the *same*
interval arithmetic the DES uses (useful / wasted-redundant /
wasted-unread vs. the producer's footprint and the consumer's reads),
and predicts iteration times from per-link fluid loads
(:mod:`.timing`).

What is shared with the DES rather than re-derived: topology routes
and bandwidths, PCIe TLP cost formulas, the roofline compute model,
GPS subscription learning (the actual ``SubscriptionTable``), and the
consumer-read convention (iteration ``k`` feeds ``k+1``; the last
iteration self-consumes).  Fault scenarios are rejected -- degraded
runs are inherently event-ordered and belong at DES fidelity.
"""

from __future__ import annotations

import numpy as np

from ..gpu.hbm import HBMModel
from ..interconnect.pcie import PCIeProtocol
from ..sim.metrics import RunMetrics
from ..trace.intervals import IntervalSet
from .protocol import PairCost, dma_cost, finepack_cost, p2p_cost, wc_cost
from .stats import DstOps, PhaseStats, phase_stats
from .timing import FabricTiming, build_topology

_STORE_PARADIGMS = frozenset({"p2p", "wc", "gps", "finepack"})
_DMA_PARADIGMS = frozenset({"dma", "dma_sliced"})

# Cross-run memos (sweeps re-predict the same trace content under many
# configs, so these are what make an analytical design sweep nearly
# free after the first spec per cell).  Both are keyed by the content
# digests of KernelPhase, never by object identity, so a prediction
# does not depend on what ran earlier in the process:
#
# * _PAIR_MEMO: (phase digest, paradigm, params, generation, finepack)
#   -> (pair_costs, footprints, uniques).
# * _CLS_MEMO: (phase digest, dst, delivered rule, consumer reads
#   digest) -> useful bytes.  The delivered rule is how PairCost.delivered
#   is built: the store/atomic footprint (p2p, wc, finepack) or the DMA
#   transfer regions (dma, dma_sliced).  Every store-family config thus
#   shares one classification per (phase, dst, consumer).
#
# GPS bypasses both: its filter depends on the consumer's reads
# (oracle) or on mutable subscription state (learned).
_PAIR_MEMO: dict = {}
_CLS_MEMO: dict = {}
_PAIR_MEMO_MAX = 1024
_CLS_MEMO_MAX = 8192


def _memo_put(memo: dict, cap: int, key, value) -> None:
    if len(memo) >= cap:
        memo.pop(next(iter(memo)))
    memo[key] = value


def predict_metrics(spec, trace) -> RunMetrics:
    """Predict the metrics of running ``trace`` under ``spec``.

    Raises :class:`ValueError` for specs the analytical tier cannot
    model (fault scenarios, paradigms without a cost model).
    """
    if spec.scenario is not None:
        raise ValueError(
            "analytical fidelity cannot model fault scenarios; "
            "run this spec at fidelity='des'"
        )
    name = spec.paradigm
    if name not in _STORE_PARADIGMS | _DMA_PARADIGMS | {"infinite"}:
        raise ValueError(
            f"analytical fidelity has no cost model for paradigm {name!r}; "
            "run this spec at fidelity='des'"
        )
    if trace.n_gpus != spec.n_gpus:
        raise ValueError(
            f"trace is for {trace.n_gpus} GPUs, spec has {spec.n_gpus}"
        )
    params = dict(spec.paradigm_params)
    protocol = PCIeProtocol(spec.generation)
    drain = HBMModel().drain_rate()
    topology = build_topology(spec)
    fabric = FabricTiming(topology, drain) if topology is not None else None
    metrics = RunMetrics(workload=trace.name, paradigm=name, n_gpus=spec.n_gpus)

    gps_tables = None
    if name == "gps" and params.get("subscription", "learned") == "learned":
        from ..sim.gps import SubscriptionTable

        page_bytes = int(params.get("page_bytes", 4096))
        gps_tables = [
            SubscriptionTable(page_bytes=page_bytes)
            for _ in range(spec.n_gpus)
        ]

    packed_messages = 0
    packed_stores = 0
    t = 0.0
    n_iters = trace.n_iterations
    # Steady-state traces repeat iteration content verbatim; everything
    # below is translation-invariant in t, so iterations with the same
    # content and consumer reads resolve to the same _IterationResult.
    # GPS learned mode is stateful across iterations and bypasses the
    # cache.
    iter_cache: dict | None = {} if gps_tables is None else None
    # Pair costs and footprints are pure functions of (phase content,
    # paradigm, its cost-relevant config); the cross-run _PAIR_MEMO
    # keys them under this prediction-wide suffix.  None disables the
    # memo (GPS: reads-dependent/stateful).
    memo_ctx: tuple | None = None
    if name != "gps":
        memo_ctx = (
            name,
            tuple(sorted(params.items())),
            spec.generation,
            spec.finepack if name == "finepack" else None,
        )
    for k, iteration in enumerate(trace.iterations):
        consumer_iter = trace.iterations[min(k + 1, n_iters - 1)]
        cache_key = None
        result = None
        if iter_cache is not None:
            cache_key = (
                tuple((p.digest, p.work) for p in iteration.phases),
                tuple(p.reads_digest for p in consumer_iter.phases),
            )
            result = iter_cache.get(cache_key)
        if result is None:
            result = _resolve_iteration(
                name, params, spec, protocol, fabric, iteration,
                consumer_iter, gps_tables, memo_ctx,
            )
            if iter_cache is not None:
                iter_cache[cache_key] = result
        result.fold_into(metrics)
        packed_messages += result.packed_messages
        packed_stores += result.packed_stores
        if fabric is not None:
            fabric.apply(result.load)
        latest = result.load.rel_latest if fabric is not None else float("-inf")
        iteration_end = t + max(result.max_compute_ns, 0.0, latest) + spec.barrier_ns
        metrics.compute_time_ns += result.max_compute_ns
        metrics.iteration_times_ns.append(iteration_end - t)
        t = iteration_end

    metrics.total_time_ns = t
    if fabric is not None:
        fabric.finalize(metrics, t)
    if packed_messages:
        # One pseudo-sample carrying the exact mean, so
        # ``mean_stores_per_packet`` matches the per-message distribution
        # the DES would have recorded.
        metrics.packets.packed_counts.append(packed_stores / packed_messages)
    metrics.fidelity = "analytical"
    return metrics


class _IterationResult:
    """Everything one resolved iteration contributes to the metrics,
    in time relative to the iteration start (reusable across identical
    iterations)."""

    __slots__ = (
        "useful", "wasted_redundant", "wasted_unread", "overhead",
        "messages", "stores_carried", "by_kind",
        "packed_messages", "packed_stores", "load", "max_compute_ns",
    )

    def __init__(self) -> None:
        self.useful = 0
        self.wasted_redundant = 0
        self.wasted_unread = 0
        self.overhead = 0
        self.messages = 0
        self.stores_carried = 0
        self.by_kind: dict = {}
        self.packed_messages = 0
        self.packed_stores = 0
        self.load = None
        self.max_compute_ns = 0.0

    def fold_into(self, metrics: RunMetrics) -> None:
        b = metrics.bytes
        b.useful += self.useful
        b.wasted_redundant += self.wasted_redundant
        b.wasted_unread += self.wasted_unread
        b.overhead += self.overhead
        p = metrics.packets
        p.messages += self.messages
        p.stores_carried += self.stores_carried
        for kind, n in self.by_kind.items():
            p.by_kind[kind] = p.by_kind.get(kind, 0) + n


def _resolve_iteration(
    name: str,
    params: dict,
    spec,
    protocol: PCIeProtocol,
    fabric: FabricTiming | None,
    iteration,
    consumer_iter,
    gps_tables,
    memo_ctx: tuple | None,
) -> _IterationResult:
    """Resolve one iteration's pair costs, classification and fabric
    load, all in time relative to the iteration start."""
    result = _IterationResult()
    durations = {
        p.gpu: spec.compute.duration_ns(p.work) for p in iteration.phases
    }
    result.max_compute_ns = max(durations.values())
    consumer_reads: dict[int, IntervalSet] = {
        p.gpu: p.reads for p in consumer_iter.phases
    }
    reads_digests = {p.gpu: p.reads_digest for p in consumer_iter.phases}
    delivered_rule = name in _DMA_PARADIGMS
    fabric_pairs: list = []
    for phase in iteration.phases:
        src = phase.gpu
        ce = durations[src]
        memo_key = None
        entry = None
        if memo_ctx is not None:
            memo_key = (phase.digest, *memo_ctx)
            entry = _PAIR_MEMO.get(memo_key)
        if entry is None:
            stats = phase_stats(phase)
            pair_costs = _phase_pair_costs(
                name, params, spec, protocol, phase, stats, consumer_reads,
                gps_tables,
            )
            # Classification inputs that are pure functions of the
            # phase content: the pair footprint and the delivered
            # unique-byte count.
            footprints = {
                dst: _pair_footprint(stats, phase, dst) for dst in pair_costs
            }
            uniques = {
                dst: c.delivered.total_bytes for dst, c in pair_costs.items()
            }
            entry = (pair_costs, footprints, uniques)
            if memo_key is not None:
                _memo_put(_PAIR_MEMO, _PAIR_MEMO_MAX, memo_key, entry)
        pair_costs, footprints, uniques = entry
        if not pair_costs:
            continue
        first_issue, last_issue = _issue_window(
            name, params, 0.0, ce, sum(c.messages for c in pair_costs.values())
        )
        for dst, cost in pair_costs.items():
            useful = None
            rkey = None
            if memo_ctx is not None:
                rkey = (
                    phase.digest, dst, delivered_rule, reads_digests.get(dst)
                )
                useful = _CLS_MEMO.get(rkey)
            if useful is None:
                reads = consumer_reads.get(dst, IntervalSet.empty())
                useful = _useful_bytes(cost, footprints[dst], reads)
                if rkey is not None:
                    _memo_put(_CLS_MEMO, _CLS_MEMO_MAX, rkey, useful)
            unique = uniques[dst]
            result.useful += useful
            result.wasted_redundant += cost.payload - unique
            result.wasted_unread += unique - useful
            result.overhead += cost.overhead
            result.messages += cost.messages
            result.stores_carried += cost.stores_carried
            for kind, n in cost.by_kind.items():
                result.by_kind[kind] = result.by_kind.get(kind, 0) + n
            result.packed_messages += cost.packed_messages
            result.packed_stores += cost.packed_stores
            if fabric is not None:
                fabric_pairs.append((src, dst, cost, first_issue, last_issue))
    if fabric is not None:
        result.load = fabric.compute_iteration(fabric_pairs)
    return result


def _phase_pair_costs(
    name: str,
    params: dict,
    spec,
    protocol: PCIeProtocol,
    phase,
    stats: PhaseStats,
    consumer_reads: dict[int, IntervalSet],
    gps_tables,
) -> dict[int, PairCost]:
    """Per-destination :class:`PairCost` of one phase."""
    out: dict[int, PairCost] = {}
    if name in _DMA_PARADIGMS:
        slices = int(params.get("slices", 4)) if name == "dma_sliced" else 1
        by_dst: dict[int, list] = {}
        for tr in phase.dma:
            by_dst.setdefault(tr.dst, []).append(tr)
        for dst, transfers in by_dst.items():
            cost = dma_cost(protocol, transfers, slices=slices)
            if cost.messages:
                out[dst] = cost
        return out
    if name == "infinite":
        return out

    stores = stats.stores
    if name == "gps":
        stores = _gps_filtered_stores(phase, consumer_reads, params, gps_tables)
    for dst in sorted(set(stores) | set(stats.atomics)):
        st = stores.get(dst)
        at = stats.atomics.get(dst)
        if name == "p2p":
            cost = p2p_cost(protocol, st, at)
        elif name == "wc":
            cost = wc_cost(protocol, st, at)
        elif name == "gps":
            cost = wc_cost(
                protocol, st, at,
                sector_bytes=int(params.get("sector_bytes", 32)),
            )
        else:
            cost = finepack_cost(spec.finepack, protocol, st, at)
        if cost.messages:
            out[dst] = cost
    return out


def _gps_filtered_stores(
    phase, consumer_reads, params: dict, gps_tables
) -> dict[int, DstOps]:
    """Subscription-filtered store columns, split by destination.

    Learned mode drives the real :class:`SubscriptionTable` (one filter
    + learn step per phase invocation, exactly like the DES paradigm);
    oracle mode replicates the read-overlap filter.
    """
    s = phase.stores
    if s.count == 0:
        return {}
    if gps_tables is not None:
        table = gps_tables[phase.gpu]
        keep = table.filter_stores(s.addrs, s.sizes, s.dsts)
        table.learn_epoch(consumer_reads)
    else:
        keep = np.zeros(s.count, dtype=bool)
        for dst in s.destinations():
            reads = consumer_reads.get(dst, IntervalSet.empty())
            if not reads:
                continue
            idx = np.flatnonzero(s.dsts == dst)
            a = s.addrs[idx]
            e = a + s.sizes[idx]
            i = np.searchsorted(reads.starts, e, side="left") - 1
            ok = (i >= 0) & (reads.ends[np.clip(i, 0, None)] > a)
            keep[idx[ok]] = True
    addrs, sizes, dsts = s.addrs[keep], s.sizes[keep], s.dsts[keep]
    out: dict[int, DstOps] = {}
    for dst in np.unique(dsts).tolist():
        idx = np.flatnonzero(dsts == dst)
        out[int(dst)] = DstOps(addrs[idx], sizes[idx])
    return out


def _issue_window(
    name: str, params: dict, t: float, ce: float, n_messages: int
) -> tuple[float, float]:
    """(first, last) message issue time of one phase's traffic.

    Store paradigms spread issues across the kernel with a release
    flush at its end; the DMA family pays the per-call software
    overhead serially after the kernel (after each kernel *slice* for
    ``dma_sliced``, whose engine still ends past kernel end).
    """
    if name in _STORE_PARADIGMS:
        return t, ce
    per_call = float(params.get("per_call_overhead_ns", 5_000.0))
    if name == "dma_sliced":
        slices = int(params.get("slices", 4))
        first = t + (ce - t) / slices + per_call
        last = ce + per_call * -(-n_messages // slices)
        return first, last
    return ce + per_call, ce + per_call * n_messages


def _pair_footprint(stats: PhaseStats, phase, dst: int) -> IntervalSet:
    """Bytes the producer genuinely wrote for ``dst`` this iteration
    (mirrors :meth:`MultiGPUSystem._pair_footprint`, unfiltered)."""
    st = stats.stores.get(dst)
    fp = st.footprint if st is not None else IntervalSet.empty()
    at = stats.atomics.get(dst)
    if at is not None and at.count:
        fp = fp.union(at.footprint)
    staged = [tr for tr in phase.dma if tr.dst == dst and tr.aggregated]
    if staged:
        fp = fp.union(
            IntervalSet.from_ranges(
                [tr.dst_addr for tr in staged],
                [tr.nbytes for tr in staged],
            )
        )
    return fp


def _useful_bytes(
    cost: PairCost, footprint: IntervalSet, reads: IntervalSet
) -> int:
    """Delivered ∩ written ∩ read -- the Figure 10 useful bytes."""
    written = (
        cost.delivered
        if cost.delivered is footprint
        else cost.delivered.intersect(footprint)
    )
    return written.intersect(reads).total_bytes
