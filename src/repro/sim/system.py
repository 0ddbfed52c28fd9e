"""The multi-GPU system simulator.

Ties the substrates together: kernel compute timing, paradigm egress
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

Each phase's egress reaches step 3 as one
:class:`~repro.perf.batch.MessageBatch`: engines that batch a phase
return one, and any ``WireMessage`` list (DMA, write combining, GPS,
per-op FinePack, scalar mode) goes through
:meth:`~repro.perf.batch.MessageBatch.from_messages`.  Step 3 has two
transports over the same flattened, stably issue-sorted rows: the
event path (one route/drain call per row, with a bare ``WireMessage``
for the topology and the tracer) and the batch plan of
:mod:`repro.perf.transport`, which reproduces it byte for byte when
nothing needs per-message hooks.  Everything else -- egress
collection, byte classification
(:func:`~repro.sim.metrics.classify_egress`) and the iteration
epilogue -- is one loop body shared by both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.depacketizer import Depacketizer
from ..faults.errors import DegradedRunError
from ..faults.state import RouteBlockedError
from ..gpu.compute import ComputeModel
from ..gpu.hbm import HBMModel
from ..interconnect.message import KINDS_BY_CODE, WireMessage
from ..interconnect.pcie import PCIE_GEN4, PCIeGeneration, PCIeProtocol
from ..interconnect.topology import Topology, make_topology
from ..perf import profiler as _prof
from ..perf.batch import FINEPACK_CODE, MessageBatch
from ..perf.config import scalar_mode
from ..perf.transport import (
    build_plan,
    drain_and_record,
    links_eligible,
    transmit_flat,
)
from ..trace.intervals import IntervalSet
from ..trace.stream import WorkloadTrace
from .metrics import RunMetrics, classify_egress
from .paradigms import FinePackParadigm, Paradigm

#: Every GPU drains ingress into local memory at the default HBM rate,
#: as the analytical tier assumes too.
_DRAIN_RATE = HBMModel().drain_rate()


@dataclass
class MultiGPUSystem:
    """An N-GPU node with a switched PCIe interconnect."""

    n_gpus: int
    protocol: PCIeProtocol
    #: Kernel timing, shared by every GPU of the node.
    compute: ComputeModel
    topology: Topology | None
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
        topology = make_topology(
            topology_kind,
            n_gpus,
            generation,
            with_credits=with_credits,
            error_rate=error_rate,
            **(topology_params or {}),
        )
        return cls(
            n_gpus=n_gpus,
            protocol=PCIeProtocol(generation),
            compute=compute or ComputeModel(),
            topology=topology,
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
        # Only FinePack emits packets, so its config is the one the
        # de-packetizers decode them with.
        depacketizers = (
            [
                Depacketizer(paradigm.config, drain_bytes_per_ns=_DRAIN_RATE)
                for _ in range(self.n_gpus)
            ]
            if isinstance(paradigm, FinePackParadigm)
            else []
        )
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
        # A store paradigm hands each phase over as a MessageBatch when
        # its engine batches it; the DMA family emits message lists.
        phase_egress = getattr(paradigm, "phase_batch", paradigm.phase_messages)
        drain_rates = np.full(self.n_gpus, _DRAIN_RATE, dtype=np.float64)

        t = 0.0
        #: Why messages were dropped because no live route remained
        #: (for DegradedRunError).
        degraded_reasons: list[str] = []
        n_iters = trace.n_iterations
        for k, iteration in enumerate(trace.iterations):
            compute_end = {
                p.gpu: t + self.compute.duration_ns(p.work)
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

            # Each phase's egress in phase order, as one MessageBatch.
            if prof is not None:
                prof.begin("egress")
            outputs: list[MessageBatch] = []
            for phase in iteration.phases:
                out = phase_egress(phase, t, compute_end[phase.gpu], consumer_reads)
                if not isinstance(out, MessageBatch):
                    out = MessageBatch.from_messages(phase.gpu, out)
                outputs.append(out)
            if prof is not None:
                prof.end()

            if plan is not None:
                latest = self._transmit_batched(
                    outputs, plan, drain_rates, depacketizers, metrics, prof
                )
            else:
                dropped: list[int] = []
                latest = self._transmit_events(
                    outputs,
                    depacketizers,
                    metrics,
                    tracer,
                    prof,
                    dropped,
                    degraded_reasons,
                )
                if dropped:
                    # Dropped messages never arrived: the ledger skips them.
                    outputs = _without(outputs, dropped)

            kernels_end = max(compute_end.values())
            iteration_end = max(kernels_end, t, latest) + self.barrier_ns
            metrics.compute_time_ns += kernels_end - t
            if prof is not None:
                prof.begin("metrics_classify")
            metrics.bytes.add(
                classify_egress(outputs, iteration.phases, consumer_reads)
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

    def _transmit_events(
        self,
        outputs: list[MessageBatch],
        depacketizers: list[Depacketizer],
        metrics: RunMetrics,
        tracer,
        prof,
        dropped: list[int],
        degraded_reasons: list[str],
    ) -> float:
        """One iteration's messages, one route/drain per row in issue
        order; returns the latest drain completion (``-inf`` with no
        traffic).

        Undeliverable rows land in ``dropped``, by their index in the
        batches' concatenation, and in ``degraded_reasons`` instead of
        the fabric.
        """
        rows = _flatten(outputs)
        if rows is None:
            return float("-inf")
        assert self.topology is not None
        latest = float("-inf")
        if prof is not None:
            prof.begin("engine_dispatch")
        for row, src, dst, payload, overhead, code, now, packed, count in zip(
            *(column.tolist() for column in rows)
        ):
            msg = WireMessage(
                src, dst, payload, overhead, KINDS_BY_CODE[code], now, packed
            )
            msg_id = None
            if tracer is not None:
                tracer.engine_step(now)
                msg_id = tracer.message_injected(msg, now)
            if prof is not None:
                prof.begin("link_serialization")
            try:
                delivered = self.topology.route(msg, now)
            except RouteBlockedError as exc:
                # Graceful degradation: the destination is
                # unreachable.  Drop the message, keep accounts
                # balanced, and finish the iteration so the run
                # ends with partial metrics instead of hanging.
                dropped.append(row)
                metrics.faults.dropped_messages += 1
                metrics.faults.dropped_bytes += payload
                degraded_reasons.append(str(exc))
                if msg_id is not None:
                    tracer.message_dropped(msg_id, msg, now)
                if prof is not None:
                    prof.end()
                continue
            if prof is not None:
                prof.end()
                prof.begin("ingress_drain")
            if code == FINEPACK_CODE:
                depacketizer = depacketizers[dst]
                drained = depacketizer.admit_one(
                    depacketizer.entries(count, payload), payload, delivered
                )
            else:
                drained = delivered + payload / _DRAIN_RATE
            if prof is not None:
                prof.end()
            if drained > latest:
                latest = drained
            metrics.packets.record(msg)
            if msg_id is not None:
                tracer.message_delivered(msg_id, msg, delivered)
                tracer.message_drained(msg_id, msg, drained)
        if prof is not None:
            prof.end()
        return latest

    def _transmit_batched(
        self,
        outputs: list[MessageBatch],
        plan,
        drain_rates: np.ndarray,
        depacketizers: list[Depacketizer],
        metrics: RunMetrics,
        prof,
    ) -> float:
        """One iteration's messages through the batch transport;
        returns the latest drain completion (``-inf`` with no traffic).

        Byte-identical to :meth:`_transmit_events`: per-link call
        order, stats mutation order and every float operation match
        (see :mod:`repro.perf.transport`).
        """
        rows = _flatten(outputs)
        if rows is None:
            return float("-inf")
        _, src, dst, payload, overhead, kinds, issue, packed, counts = rows
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
            counts,
            depacketizers,
            drain_rates,
            metrics.packets,
        )
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


def _flatten(outputs: list[MessageBatch]) -> tuple[np.ndarray, ...] | None:
    """One iteration's batches as flat columns in issue order, or
    ``None`` with no messages.

    The sort by issue time is stable, so messages issued at the same
    time keep their phase and emission order.  Returns ``(row, src,
    dst, payload, overhead, kind, issue, packed, counts)``: ``row`` is
    each message's index in the batches' concatenation, ``counts`` its
    range count.
    """
    items = [b for b in outputs if len(b)]
    if not items:
        return None
    issue = np.concatenate([b.issue for b in items])
    row = np.argsort(issue, kind="stable")

    def column(name: str) -> np.ndarray:
        return np.concatenate([getattr(b, name) for b in items])[row]

    src = np.repeat([b.src for b in items], [len(b) for b in items])
    counts = np.concatenate(
        [
            np.ones(len(b), dtype=np.int64) if b.counts is None else b.counts
            for b in items
        ]
    )
    return (
        row,
        src[row],
        column("dst"),
        column("payload"),
        column("overhead"),
        column("kind"),
        issue[row],
        column("packed"),
        counts[row],
    )


def _without(outputs: list[MessageBatch], rows: list[int]) -> list[MessageBatch]:
    """``outputs`` less the messages at ``rows``, indices into their
    concatenation."""
    keep = np.ones(sum(len(b) for b in outputs), dtype=bool)
    keep[rows] = False
    ends = np.cumsum([len(b) for b in outputs]).tolist()
    return [b.select(keep[hi - len(b) : hi]) for b, hi in zip(outputs, ends)]
