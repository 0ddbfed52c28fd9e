"""The :class:`RunContext` composition root.

A context turns one :class:`~repro.run.spec.RunSpec` into live
components -- workload, trace, system, paradigm, fault injector,
tracer -- and executes the run.  This is the *single* place where the
pieces are wired together; the grid executor, ``chaos.py``, the CLI
and the benchmarks are all thin layers over it, so a new knob is
added by (1) giving :class:`RunSpec` a field and (2) consuming it
here.

A single in-process run may override two components: a pre-generated
``trace`` (which must match the spec's ``n_gpus``) and a
:class:`~repro.obs.Tracer`.  Overrides are deliberately *not* part of
the spec, so the spec stays hashable and picklable for the parallel
executor.  The workload and the paradigm are always the spec's
registered ones, so a :class:`RunOutcome` names what actually ran.

Two execution surfaces:

* :meth:`RunContext.run` returns :class:`RunMetrics` and lets
  :class:`~repro.faults.errors.DegradedRunError` propagate, like
  :meth:`MultiGPUSystem.run`.
* :meth:`RunContext.execute` returns a :class:`RunOutcome` that
  captures degradation as data (what grids and the chaos harness
  need) plus the run's trace-cache counter deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.errors import DegradedRunError
from ..sim.metrics import RunMetrics
from .cache import TraceCache
from .spec import RunSpec


@dataclass
class RunOutcome:
    """One executed spec: metrics plus degradation and cache accounting.

    ``metrics`` is partial when ``degraded`` is set (accumulated up to
    the iteration the fabric lost a destination), mirroring
    :class:`DegradedRunError`.
    """

    spec: RunSpec
    metrics: RunMetrics
    degraded: bool = False
    reasons: tuple[str, ...] = ()
    #: ``{"hits": h, "misses": m, "corrupt": c}`` trace-cache deltas
    #: attributable to this run.  Accounting only -- excluded from
    #: equality so serial, parallel, cached and resumed runs of the same
    #: spec compare equal on what the simulation actually produced.
    cache_stats: dict[str, int] = field(default_factory=dict, compare=False)
    #: Pid of the worker process that executed the run (``None``
    #: in-process).  Accounting only, like everything below.
    worker_pid: int | None = field(default=None, compare=False)
    #: Attempts the supervised executor spent on this cell (>= 1).
    attempts: int = field(default=1, compare=False)
    #: True when this outcome was served from an
    #: :class:`~repro.run.outcomes.OutcomeStore` instead of simulated.
    cached: bool = field(default=False, compare=False)


class RunContext:
    """Builds and runs the components described by a spec.

    Parameters
    ----------
    spec:
        The run description.
    trace_cache:
        Optional :class:`TraceCache`; a private memory-only cache is
        created when omitted.
    trace, tracer:
        In-process component overrides (see module docstring).
    """

    def __init__(
        self,
        spec: RunSpec,
        trace_cache: TraceCache | None = None,
        *,
        trace=None,
        tracer=None,
    ) -> None:
        self.spec = spec
        self.trace_cache = trace_cache if trace_cache is not None else TraceCache()
        self.tracer = tracer
        self._trace = trace
        self._paradigm = None
        self._system = None
        self._injector_built = False
        self._injector = None

    # -- component accessors (built once, on demand) ----------------

    @property
    def trace(self):
        if self._trace is None:
            self._trace = self.trace_cache.get_or_generate(self.spec)
        return self._trace

    @property
    def paradigm(self):
        if self._paradigm is None:
            self._paradigm = self.spec.build_paradigm()
        return self._paradigm

    @property
    def injector(self):
        """The armed-on-run :class:`FaultInjector`, or ``None``."""
        if not self._injector_built:
            self._injector_built = True
            schedule = self.spec.build_schedule()
            if schedule is not None and len(schedule):
                from ..faults.injector import FaultInjector

                self._injector = FaultInjector(
                    schedule,
                    retry_timeout_ns=self.spec.fabric.retry_timeout_ns,
                    max_retries=self.spec.fabric.max_retries,
                )
        return self._injector

    @property
    def system(self):
        if self._system is None:
            from ..sim.system import MultiGPUSystem

            spec = self.spec
            self._system = MultiGPUSystem.build(
                n_gpus=spec.n_gpus,
                generation=spec.generation,
                compute=spec.compute,
                barrier_ns=spec.barrier_ns,
                topology_kind=spec.topology,
                topology_params=dict(spec.topology_params),
                with_credits=spec.with_credits,
                error_rate=spec.fabric.error_rate,
                fault_injector=self.injector,
            )
        return self._system

    # -- execution --------------------------------------------------

    def run(self) -> RunMetrics:
        """Replay the trace; raises :class:`DegradedRunError` like
        :meth:`MultiGPUSystem.run` does.

        At ``fidelity="analytical"`` the trace is never replayed: the
        metrics come from :func:`repro.analytical.predict_metrics`
        (closed form, no event loop, no system built).
        """
        if self.spec.fidelity == "analytical":
            if self.tracer is not None:
                raise ValueError(
                    "tracers observe discrete events; analytical fidelity "
                    "produces none (use fidelity='des' to trace this run)"
                )
            from ..analytical import predict_metrics

            return predict_metrics(self.spec, self.trace)
        return self.system.run(self.trace, self.paradigm, tracer=self.tracer)

    def execute(self) -> RunOutcome:
        """Replay the trace, capturing degradation as data."""
        before = self.trace_cache.stats()
        try:
            metrics = self.run()
            outcome = RunOutcome(spec=self.spec, metrics=metrics)
        except DegradedRunError as exc:
            outcome = RunOutcome(
                spec=self.spec,
                metrics=exc.metrics,
                degraded=True,
                reasons=exc.reasons,
            )
        after = self.trace_cache.stats()
        outcome.cache_stats = {k: after[k] - before[k] for k in after}
        return outcome
