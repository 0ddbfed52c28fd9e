"""The multi-GPU system simulator.

Ties the substrates together: per-GPU compute timing, paradigm egress
engines, the switched interconnect, receiver-side ingress draining, and
the per-iteration bulk-synchronous barrier.  One call to
:meth:`MultiGPUSystem.run` replays a workload trace under one paradigm
and returns complete :class:`RunMetrics`.

Timeline of one iteration (paper's execution model):

1. Every GPU starts its kernel at the barrier; the kernel lasts a
   roofline-modelled duration.
2. Store-based paradigms issue their remote stores spread across the
   kernel (overlap); kernel end acts as a system-scoped release that
   flushes egress buffers.  The memcpy paradigm instead issues bulk
   copies after the kernel, paying per-call software overhead.
3. Messages serialize through the switched topology in global time
   order (discrete-event), then drain into the destination's memory
   system (FinePack packets pass the de-packetizer's bounded ingress
   buffer).
4. The next iteration starts when all kernels are done *and* all
   traffic has drained, plus a barrier cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import FinePackConfig
from ..core.depacketizer import Depacketizer
from ..faults.errors import DegradedRunError
from ..faults.state import RouteBlockedError
from ..gpu.compute import ComputeModel
from ..gpu.gpu import GPU
from ..interconnect.message import MessageKind, WireMessage
from ..interconnect.pcie import PCIE_GEN4, PCIeGeneration, PCIeProtocol
from ..interconnect.topology import Topology
from ..perf import profiler as _prof
from ..perf.batch import arrays_from_messages
from ..perf.config import scalar_mode
from ..perf.transport import (
    build_plan,
    drain_and_record,
    links_eligible,
    transmit_flat,
)
from ..registry import RegistryError
from ..registry import topologies as topology_registry
from ..trace.intervals import IntervalSet
from ..trace.stream import WorkloadTrace
from .engine import Engine
from .metrics import ByteBreakdown, RunMetrics, classify_messages, classify_ranges
from .paradigms import Paradigm


@dataclass
class MultiGPUSystem:
    """An N-GPU node with a switched PCIe interconnect."""

    n_gpus: int
    protocol: PCIeProtocol
    gpus: list[GPU]
    topology: Topology | None
    finepack_config: FinePackConfig = field(default_factory=FinePackConfig)
    #: Cost of the inter-GPU synchronization barrier per iteration.
    barrier_ns: float = 2_000.0
    #: Optional :class:`~repro.faults.injector.FaultInjector`; when set,
    #: its schedule is armed on the topology at the start of every run.
    fault_injector: object | None = None

    @classmethod
    def build(
        cls,
        n_gpus: int = 4,
        generation: PCIeGeneration = PCIE_GEN4,
        compute: ComputeModel | None = None,
        finepack_config: FinePackConfig | None = None,
        barrier_ns: float = 2_000.0,
        topology_kind: str | None = None,
        topology_params: dict | None = None,
        with_credits: bool = False,
        error_rate: float = 0.0,
        fault_injector: object | None = None,
    ) -> "MultiGPUSystem":
        """Construct the paper's testbed (or a variant).

        ``topology_kind`` selects a factory from
        :data:`repro.registry.topologies` -- ``"single_switch"`` (the
        paper's 4-GPU testbed, default), ``"two_level"`` (the projected
        16-GPU tree), ``"fully_connected"`` (NVSwitch-class pairwise
        links), ``"fat_tree"`` (multi-level, 8-64+ GPUs) or
        ``"switched_mesh"`` (multi-plane rails).
        ``topology_params`` passes factory-specific keywords through
        (``fanout``, ``oversubscription``, ``planes``, ...).
        ``error_rate`` is the baseline per-byte corruption probability
        of every link (see :class:`~repro.core.config.FabricConfig`);
        ``fault_injector`` arms a scenario's scheduled faults.
        """
        compute = compute or ComputeModel()
        gpus = [GPU(index=i, compute=compute) for i in range(n_gpus)]
        topology: Topology | None = None
        if n_gpus > 1:
            try:
                factory = topology_registry.resolve(topology_kind or "single_switch")
            except RegistryError as exc:
                raise ValueError(str(exc)) from None
            topology = factory(
                n_gpus=n_gpus,
                generation=generation,
                with_credits=with_credits,
                error_rate=error_rate,
                **(topology_params or {}),
            )
        return cls(
            n_gpus=n_gpus,
            protocol=PCIeProtocol(generation),
            gpus=gpus,
            topology=topology,
            finepack_config=finepack_config or FinePackConfig(),
            barrier_ns=barrier_ns,
            fault_injector=fault_injector,
        )

    def run(
        self, trace: WorkloadTrace, paradigm: Paradigm, tracer=None
    ) -> RunMetrics:
        """Replay ``trace`` under ``paradigm``; returns run metrics.

        ``tracer`` is an optional :class:`repro.obs.Tracer`: when given,
        the run emits the full structured event stream (kernel spans,
        message lifecycle, per-link serialization, remote-write-queue
        activity, barriers) and -- by default -- checks runtime
        invariants as it goes.  One tracer observes one run.
        """
        if trace.n_gpus != self.n_gpus:
            raise ValueError(
                f"trace is for {trace.n_gpus} GPUs, system has {self.n_gpus}"
            )
        paradigm.attach(self.n_gpus, self.protocol)
        if self.topology is not None:
            self.topology.reset()
        if tracer is not None:
            if self.topology is not None:
                self.topology.set_tracer(tracer)
            for egress in getattr(paradigm, "engines", []):
                egress.tracer = tracer
        if self.fault_injector is not None and self.topology is not None:
            self.fault_injector.arm(self.topology, tracer=tracer)
        engine = Engine(tracer=tracer)
        depacketizers = [
            Depacketizer(
                self.finepack_config,
                drain_bytes_per_ns=g.hbm.drain_rate(),
            )
            for g in self.gpus
        ]
        metrics = RunMetrics(
            workload=trace.name, paradigm=paradigm.name, n_gpus=self.n_gpus
        )

        prof = _prof.ACTIVE
        # Batch-transport eligibility, decided once per run: the
        # event-driven path stays authoritative whenever anything needs
        # per-message hooks or stateful links (tracers, armed faults,
        # flow-control credits, replay RNGs).  Topology-wise the plan
        # only requires an acyclic route adjacency (true for every
        # tree/mesh factory, including multi-level fat trees): links
        # are processed in topological order with per-link traffic
        # merged in global issue order, reproducing the scalar call
        # sequence exactly (see repro.perf.transport).
        plan = None
        if (
            not scalar_mode()
            and self.topology is not None
            and tracer is None
            and self.fault_injector is None
            and links_eligible(self.topology)
        ):
            plan = build_plan(self.topology)
        phase_batch = (
            getattr(paradigm, "phase_batch", None) if plan is not None else None
        )
        drain_rates = np.asarray(
            [g.hbm.drain_rate() for g in self.gpus], dtype=np.float64
        )

        t = 0.0
        #: id(msg) of messages dropped because no live route remained,
        #: and the human-readable reasons (for DegradedRunError).
        dropped_ids: set[int] = set()
        degraded_reasons: list[str] = []
        n_iters = trace.n_iterations
        for k, iteration in enumerate(trace.iterations):
            compute_end = {
                p.gpu: t + self.gpus[p.gpu].kernel_time_ns(p.work)
                for p in iteration.phases
            }
            if tracer is not None:
                releases = hasattr(paradigm, "engines")
                for gpu in sorted(compute_end):
                    tracer.kernel(gpu, t, compute_end[gpu], iteration=k)
                    if releases:
                        tracer.fence_release(gpu, compute_end[gpu])
            # Data produced in iteration k is consumed in iteration k+1;
            # the final iteration reuses its own read set as the
            # steady-state consumer.
            consumer_iter = trace.iterations[min(k + 1, n_iters - 1)]
            consumer_reads: dict[int, IntervalSet] = {
                p.gpu: p.reads for p in consumer_iter.phases
            }

            if plan is not None:
                latest = self._iteration_batched(
                    iteration,
                    t,
                    compute_end,
                    consumer_reads,
                    paradigm,
                    phase_batch,
                    plan,
                    drain_rates,
                    depacketizers,
                    metrics,
                    prof,
                )
                iteration_end = (
                    max(max(compute_end.values()), t, latest) + self.barrier_ns
                )
                metrics.compute_time_ns += max(compute_end.values()) - t
                # No tracer and no faults on this path (preconditions of
                # the batch plan), so the scalar epilogue reduces to:
                metrics.iteration_times_ns.append(iteration_end - t)
                t = iteration_end
                continue

            per_pair: dict[tuple[int, int], list[WireMessage]] = {}
            all_msgs: list[WireMessage] = []
            if prof is not None:
                prof.begin("egress")
            for phase in iteration.phases:
                msgs = paradigm.phase_messages(
                    phase, t, compute_end[phase.gpu], consumer_reads
                )
                for m in msgs:
                    per_pair.setdefault((m.src, m.dst), []).append(m)
                all_msgs.append(msgs)
            if prof is not None:
                prof.end()
            all_msgs = [m for msgs in all_msgs for m in msgs]

            completions = [t]

            def inject(msg: WireMessage) -> None:
                assert self.topology is not None
                msg_id = (
                    tracer.message_injected(msg, engine.now)
                    if tracer is not None
                    else None
                )
                if prof is not None:
                    prof.begin("link_serialization")
                try:
                    delivered = self.topology.route(msg, engine.now)
                except RouteBlockedError as exc:
                    # Graceful degradation: the destination is
                    # unreachable.  Drop the message, keep accounts
                    # balanced, and finish the iteration so the run
                    # ends with partial metrics instead of hanging.
                    dropped_ids.add(id(msg))
                    metrics.faults.dropped_messages += 1
                    metrics.faults.dropped_bytes += msg.payload_bytes
                    degraded_reasons.append(str(exc))
                    if msg_id is not None:
                        tracer.message_dropped(msg_id, msg, engine.now)
                    if prof is not None:
                        prof.end()
                    return
                if prof is not None:
                    prof.end()
                    prof.begin("ingress_drain")
                if msg.kind is MessageKind.FINEPACK:
                    drained = depacketizers[msg.dst].admit(
                        msg.meta["packet"], delivered
                    )
                else:
                    drained = delivered + msg.payload_bytes / self.gpus[
                        msg.dst
                    ].hbm.drain_rate()
                if prof is not None:
                    prof.end()
                completions.append(drained)
                metrics.packets.record(msg)
                if msg_id is not None:
                    tracer.message_delivered(msg_id, msg, delivered)
                    tracer.message_drained(msg_id, msg, drained)

            for m in sorted(all_msgs, key=lambda m: m.issue_time):
                engine.schedule(m.issue_time, inject, m)
            if prof is not None:
                prof.begin("engine_dispatch")
            engine.run()
            if prof is not None:
                prof.end()

            iteration_end = (
                max(max(compute_end.values()), max(completions)) + self.barrier_ns
            )
            metrics.compute_time_ns += max(compute_end.values()) - t

            if prof is not None:
                prof.begin("metrics_classify")
            for (src, dst), msgs in per_pair.items():
                if dropped_ids:
                    msgs = [m for m in msgs if id(m) not in dropped_ids]
                    if not msgs:
                        continue
                metrics.bytes.add(
                    classify_messages(
                        msgs,
                        self._pair_footprint(iteration, src, dst),
                        consumer_reads.get(dst, IntervalSet.empty()),
                    )
                )
            if prof is not None:
                prof.end()

            if tracer is not None:
                tracer.barrier(k, iteration_end - self.barrier_ns, iteration_end)
                tracer.iteration(k, t, iteration_end)
            metrics.iteration_times_ns.append(iteration_end - t)
            t = iteration_end
            if degraded_reasons:
                # The fabric lost a destination this iteration; the
                # remaining iterations would only replay the same drops.
                break

        metrics.total_time_ns = t
        self._collect_fabric_stats(metrics, t)
        if tracer is not None:
            if self.topology is not None:
                self.topology.set_tracer(None)
            tracer.finish()
        if degraded_reasons:
            metrics.degraded = True
            # Deduplicate while preserving first-seen order.
            reasons = tuple(dict.fromkeys(degraded_reasons))
            raise DegradedRunError(
                f"run degraded after iteration {len(metrics.iteration_times_ns) - 1}: "
                f"{metrics.faults.dropped_messages} message(s) undeliverable",
                metrics=metrics,
                reasons=reasons,
            )
        return metrics

    def _pair_footprint(self, iteration, src: int, dst: int) -> IntervalSet:
        """Bytes the producer genuinely wrote for ``dst`` this iteration."""
        src_phase = iteration.phases[src]
        footprint = src_phase.stores.for_dst(dst).footprint()
        if src_phase.atomics.count:
            footprint = footprint.union(
                src_phase.atomics.for_dst(dst).footprint()
            )
        # Software-aggregated DMA staging buffers are genuinely
        # written by the producer in full.
        staged = [
            tr for tr in src_phase.dma if tr.dst == dst and tr.aggregated
        ]
        if staged:
            footprint = footprint.union(
                IntervalSet.from_ranges(
                    [tr.dst_addr for tr in staged],
                    [tr.nbytes for tr in staged],
                )
            )
        return footprint

    def _iteration_batched(
        self,
        iteration,
        t: float,
        compute_end: dict[int, float],
        consumer_reads: dict[int, IntervalSet],
        paradigm: Paradigm,
        phase_batch,
        plan,
        drain_rates: np.ndarray,
        depacketizers: list[Depacketizer],
        metrics: RunMetrics,
        prof,
    ) -> float:
        """One iteration through the batch transport; returns the
        latest drain completion (``-inf`` with no traffic).

        Byte-identical to the event-driven path: op streams, issue
        times, per-link call order, stats mutation order and every
        float operation match (see :mod:`repro.perf.transport`).
        """
        if prof is not None:
            prof.begin("egress")
        # Phase outputs in phase order: a (True, MessageBatch) when the
        # paradigm's engine batched the whole op stream, else a
        # (False, list[WireMessage]) from the scalar egress path.
        items: list[tuple[bool, object]] = []
        for phase in iteration.phases:
            batch = None
            if phase_batch is not None:
                batch = phase_batch(
                    phase, t, compute_end[phase.gpu], consumer_reads
                )
            if batch is not None:
                items.append((True, batch))
            else:
                items.append(
                    (
                        False,
                        paradigm.phase_messages(
                            phase, t, compute_end[phase.gpu], consumer_reads
                        ),
                    )
                )
        if prof is not None:
            prof.end()

        src_p: list[np.ndarray] = []
        dst_p: list[np.ndarray] = []
        pay_p: list[np.ndarray] = []
        ovh_p: list[np.ndarray] = []
        kind_p: list[np.ndarray] = []
        issue_p: list[np.ndarray] = []
        packed_p: list[np.ndarray] = []
        #: Flat per-message object refs (pre-sort order); ``None`` for
        #: batch elements, which never need their object back.
        obj_refs: list = []
        for is_batch, item in items:
            if is_batch:
                n = len(item)
                if n == 0:
                    continue
                src_p.append(np.full(n, item.src, dtype=np.int64))
                dst_p.append(item.dst)
                pay_p.append(item.payload)
                ovh_p.append(item.overhead)
                kind_p.append(item.kind)
                issue_p.append(item.issue)
                packed_p.append(item.packed)
                obj_refs.extend([None] * n)
            elif item:
                s, d, p, o, kd, ti, pk = arrays_from_messages(item)
                src_p.append(s)
                dst_p.append(d)
                pay_p.append(p)
                ovh_p.append(o)
                kind_p.append(kd)
                issue_p.append(ti)
                packed_p.append(pk)
                obj_refs.extend(item)

        latest = float("-inf")
        if obj_refs:
            issue = np.concatenate(issue_p)
            # Stable sort by issue time == the engine's (time, seq)
            # order, since seq follows the concatenation (phase) order.
            order = np.argsort(issue, kind="stable")
            issue = issue[order]
            src = np.concatenate(src_p)[order]
            dst = np.concatenate(dst_p)[order]
            payload = np.concatenate(pay_p)[order]
            overhead = np.concatenate(ovh_p)[order]
            kinds = np.concatenate(kind_p)[order]
            packed = np.concatenate(packed_p)[order]
            if prof is not None:
                prof.begin("link_serialization")
            deliveries = transmit_flat(
                self.topology,
                plan,
                src,
                dst,
                issue,
                payload + overhead,
                payload,
                overhead,
                packed,
                kinds,
            )
            if prof is not None:
                prof.end()
                prof.begin("ingress_drain")
            latest = drain_and_record(
                deliveries,
                dst,
                payload,
                packed,
                kinds,
                order,
                obj_refs,
                depacketizers,
                drain_rates,
                metrics.packets,
            )
            if prof is not None:
                prof.end()

        if prof is not None:
            prof.begin("metrics_classify")
        # Per-(src, dst) range/byte accumulators: [array-range starts,
        # array-range lengths, scalar starts, scalar lengths, payload,
        # overhead].  Range order inside a pair is irrelevant (interval
        # union and int sums), so batch segments and scalar messages
        # mix freely.
        pair_acc: dict[tuple[int, int], list] = {}
        for is_batch, item in items:
            if is_batch:
                if len(item) == 0:
                    continue
                d_arr = item.dst
                uniq, first = np.unique(d_arr, return_index=True)
                for j in np.argsort(first, kind="stable").tolist():
                    d = int(uniq[j])
                    idx = np.flatnonzero(d_arr == d)
                    acc = pair_acc.setdefault(
                        (item.src, d), [[], [], [], [], 0, 0]
                    )
                    acc[0].append(item.starts[idx])
                    acc[1].append(item.lengths[idx])
                    acc[4] += int(item.payload[idx].sum())
                    acc[5] += int(item.overhead[idx].sum())
            else:
                for m in item:
                    acc = pair_acc.setdefault(
                        (m.src, m.dst), [[], [], [], [], 0, 0]
                    )
                    acc[4] += m.payload_bytes
                    acc[5] += m.overhead_bytes
                    single = m.meta.get("range1")
                    if single is not None:
                        acc[2].append(single[0])
                        acc[3].append(single[1])
                        continue
                    ranges = m.meta.get("ranges")
                    if ranges is None:
                        raise ValueError(f"message {m} lacks range annotations")
                    acc[0].append(np.asarray(ranges[0], dtype=np.int64))
                    acc[1].append(np.asarray(ranges[1], dtype=np.int64))
        for (src_gpu, dst_gpu), acc in pair_acc.items():
            sp, lp, ss, sl, payload_sum, overhead_sum = acc
            if ss:
                sp.append(np.asarray(ss, dtype=np.int64))
                lp.append(np.asarray(sl, dtype=np.int64))
            starts = np.concatenate(sp) if sp else np.empty(0, np.int64)
            lens = np.concatenate(lp) if lp else np.empty(0, np.int64)
            breakdown = ByteBreakdown(overhead=overhead_sum)
            classify_ranges(
                starts,
                lens,
                payload_sum,
                self._pair_footprint(iteration, src_gpu, dst_gpu),
                consumer_reads.get(dst_gpu, IntervalSet.empty()),
                breakdown,
            )
            metrics.bytes.add(breakdown)
        if prof is not None:
            prof.end()
        return latest

    def _collect_fabric_stats(self, metrics: RunMetrics, total_ns: float) -> None:
        """Fold per-link counters into the run's fault/link accounting."""
        if self.topology is None:
            return
        faults = metrics.faults
        faults.rerouted_messages += self.topology.rerouted_messages
        for (a, b), stats in self.topology.all_stats().items():
            name = f"{a}->{b}"
            if total_ns > 0:
                metrics.links.by_link[name] = stats.busy_time_ns / total_ns
            faults.replays += stats.replays
            faults.replay_bytes += stats.replay_bytes
            faults.replay_saturations += stats.replay_saturations
            faults.retransmits += stats.retransmits
            faults.fault_stall_ns += stats.fault_stall_ns
            metrics.link_stats[name] = {
                "messages": stats.messages,
                "wire_bytes": stats.wire_bytes,
                "busy_time_ns": stats.busy_time_ns,
                "utilization": stats.busy_time_ns / total_ns if total_ns > 0 else 0.0,
                **stats.fault_summary(),
            }
