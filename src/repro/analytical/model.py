"""Compose phase statistics, protocol costs and timing into RunMetrics.

:func:`predict_metrics` is the analytical tier's counterpart of
:meth:`MultiGPUSystem.run`: it walks the trace's iterations in order,
but instead of scheduling per-message events it computes each
(source phase, destination) pair's wire traffic in closed form
(:mod:`.protocol`), classifies the delivered bytes with the DES's own
classifier (the written-and-read sets of
:func:`~repro.sim.metrics.written_and_read`,
:meth:`~repro.sim.metrics.ByteBreakdown.record`), and predicts
iteration times from per-link fluid loads (:mod:`.timing`).

Everything that is not a cost model is the DES's own code: the
paradigm (``spec.build_paradigm()`` and ``attach``, whose attributes
the cost terms read and whose ``filter_stores`` applies GPS
subscription), the topology
(:func:`~repro.interconnect.topology.make_topology`), PCIe TLP cost
formulas, the roofline compute model, and the consumer-read convention
(iteration ``k`` feeds ``k+1``; the last iteration self-consumes).
Fault scenarios and FinePack's flush timeout and multi-window
extensions are rejected -- they belong at DES fidelity.
"""

from __future__ import annotations

from ..gpu.hbm import HBMModel
from ..interconnect.pcie import PCIeProtocol
from ..interconnect.topology import make_topology
from ..sim.metrics import ByteBreakdown, RunMetrics, written_and_read
from ..trace.intervals import IntervalSet
from ..trace.stream import RemoteStoreBatch
from .protocol import PairCost, dma_cost, finepack_cost, p2p_cost, wc_cost
from .stats import PhaseStats, phase_stats, split_by_dst
from .timing import FabricTiming

_STORE_PARADIGMS = frozenset({"p2p", "wc", "gps", "finepack"})
_DMA_PARADIGMS = frozenset({"dma", "dma_sliced"})

# Cross-run memos (sweeps re-predict the same trace content under many
# configs, so these are what make an analytical design sweep nearly
# free after the first spec per cell).  Both are keyed by the content
# digests of KernelPhase, never by object identity, so a prediction
# does not depend on what ran earlier in the process:
#
# * _PAIR_MEMO: (phase digest, paradigm, params, TLP overhead, max
#   payload, flit mode, finepack) -> pair_costs.
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
    model (fault scenarios, paradigms without a cost model, FinePack's
    flush timeout and multi-window extensions), and the DES's own
    errors for paradigm parameters the DES rejects.
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
    protocol = PCIeProtocol(spec.generation)
    paradigm = spec.build_paradigm()
    paradigm.attach(spec.n_gpus, protocol)
    if name == "finepack" and (
        paradigm.flush_timeout_ns is not None or paradigm.windows > 1
    ):
        raise ValueError(
            "analytical fidelity has no model for FinePack's flush timeout "
            "or multiple windows; run this spec at fidelity='des'"
        )
    drain = HBMModel().drain_rate()
    topology = make_topology(
        spec.topology,
        spec.n_gpus,
        spec.generation,
        with_credits=spec.with_credits,
        error_rate=spec.fabric.error_rate,
        **dict(spec.topology_params),
    )
    fabric = FabricTiming(topology, drain) if topology is not None else None
    metrics = RunMetrics(workload=trace.name, paradigm=name, n_gpus=spec.n_gpus)

    packed_messages = 0
    packed_stores = 0
    t = 0.0
    n_iters = trace.n_iterations
    # Steady-state traces repeat iteration content verbatim; everything
    # below is translation-invariant in t, so iterations with the same
    # content and consumer reads resolve to the same _IterationResult.
    # GPS learned mode is stateful across iterations and bypasses the
    # cache.
    learned = name == "gps" and paradigm.subscription == "learned"
    iter_cache: dict | None = None if learned else {}
    # Pair costs are pure functions of (phase content, paradigm, its
    # cost-relevant config); the cross-run _PAIR_MEMO keys them under
    # this prediction-wide suffix.  Of the protocol, the cost functions
    # read only the TLP overhead, the max payload and flit mode, which
    # every PCIe generation shares, so a sweep over generations costs
    # each pair once.  None disables the memo (GPS: reads-dependent/
    # stateful).
    memo_ctx: tuple | None = None
    if name != "gps":
        memo_ctx = (
            name,
            spec.paradigm_params,
            protocol.per_tlp_overhead,
            protocol.max_payload,
            protocol.flit_mode,
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
                name, paradigm, spec, protocol, fabric, iteration,
                consumer_iter, memo_ctx,
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
        "bytes", "messages", "stores_carried", "by_kind",
        "packed_messages", "packed_stores", "load", "max_compute_ns",
    )

    def __init__(self) -> None:
        self.bytes = ByteBreakdown()
        self.messages = 0
        self.stores_carried = 0
        self.by_kind: dict = {}
        self.packed_messages = 0
        self.packed_stores = 0
        self.load = None
        self.max_compute_ns = 0.0

    def fold_into(self, metrics: RunMetrics) -> None:
        metrics.bytes.add(self.bytes)
        p = metrics.packets
        p.messages += self.messages
        p.stores_carried += self.stores_carried
        for kind, n in self.by_kind.items():
            p.by_kind[kind] = p.by_kind.get(kind, 0) + n


def _resolve_iteration(
    name: str,
    paradigm,
    spec,
    protocol: PCIeProtocol,
    fabric: FabricTiming | None,
    iteration,
    consumer_iter,
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
        pair_costs = None
        if memo_ctx is not None:
            memo_key = (phase.digest, *memo_ctx)
            pair_costs = _PAIR_MEMO.get(memo_key)
        if pair_costs is None:
            pair_costs = _phase_pair_costs(
                name, paradigm, protocol, phase, phase_stats(phase),
                consumer_reads,
            )
            if memo_key is not None:
                _memo_put(_PAIR_MEMO, _PAIR_MEMO_MAX, memo_key, pair_costs)
        if not pair_costs:
            continue
        first_issue, last_issue = _issue_window(
            name, paradigm, 0.0, ce, sum(c.messages for c in pair_costs.values())
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
                # Delivered ∩ written ∩ read, against the DES
                # classifier's memoized written-and-read set.
                useful = cost.delivered.intersect(
                    written_and_read(
                        phase, dst, consumer_reads.get(dst, IntervalSet.empty())
                    )
                ).total_bytes
                if rkey is not None:
                    _memo_put(_CLS_MEMO, _CLS_MEMO_MAX, rkey, useful)
            result.bytes.record(
                cost.payload, cost.overhead, cost.delivered.total_bytes, useful
            )
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
    paradigm,
    protocol: PCIeProtocol,
    phase,
    stats: PhaseStats,
    consumer_reads: dict[int, IntervalSet],
) -> dict[int, PairCost]:
    """Per-destination :class:`PairCost` of one phase."""
    out: dict[int, PairCost] = {}
    if name in _DMA_PARADIGMS:
        slices = paradigm.slices if name == "dma_sliced" else 1
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
        # The DES paradigm's own subscription filter (and, in learned
        # mode, its SubscriptionTable state): one filter + learn step
        # per phase invocation.
        stores = split_by_dst(
            RemoteStoreBatch.trusted(*paradigm.filter_stores(phase, consumer_reads))
        )
    for dst in sorted(set(stores) | set(stats.atomics)):
        st = stores.get(dst)
        at = stats.atomics.get(dst)
        if name == "p2p":
            cost = p2p_cost(protocol, st, at)
        elif name == "wc":
            cost = wc_cost(protocol, st, at)
        elif name == "gps":
            cost = wc_cost(protocol, st, at, sector_bytes=paradigm.sector_bytes)
        else:
            cost = finepack_cost(paradigm.config, protocol, st, at)
        if cost.messages:
            out[dst] = cost
    return out


def _issue_window(
    name: str, paradigm, t: float, ce: float, n_messages: int
) -> tuple[float, float]:
    """(first, last) message issue time of one phase's traffic.

    Store paradigms spread issues across the kernel with a release
    flush at its end; the DMA family pays the per-call software
    overhead serially after the kernel (after each kernel *slice* for
    ``dma_sliced``, whose engine still ends past kernel end).
    """
    if name in _STORE_PARADIGMS:
        return t, ce
    per_call = paradigm.per_call_overhead_ns
    if name == "dma_sliced":
        slices = paradigm.slices
        first = t + (ce - t) / slices + per_call
        last = ce + per_call * -(-n_messages // slices)
        return first, last
    return ce + per_call, ce + per_call * n_messages
