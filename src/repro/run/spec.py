"""The :class:`RunSpec`: one frozen, hashable description of a run.

A spec captures *everything* that determines a simulation's result:
experiment shape (workload + parameters, GPU count, iterations, seed),
the communication paradigm, the fabric (PCIe generation, topology,
credits, error rate), the FinePack hardware configuration, the compute
model, and an optional fault scenario at an intensity.  Because the
spec is deeply frozen it can be hashed, deduplicated, pickled to worker
processes, and content-addressed:

* :meth:`RunSpec.key` identifies the full run -- equal keys mean
  byte-identical metrics (the simulator is deterministic).
* :meth:`RunSpec.trace_key` identifies only the workload-trace inputs
  ``(workload, params, n_gpus, iterations, seed)`` -- the trace cache's
  address, shared by every paradigm/fabric variation replaying the
  same trace.

Sub-configurations are *deep-frozen*: only the frozen dataclasses
(:class:`FinePackConfig`, :class:`FabricConfig`, :class:`ComputeModel`,
:class:`PCIeGeneration`) are accepted, and loose parameter mappings are
normalized to sorted tuples, so a spec can never alias mutable state
across sweep cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping

from ..core.config import FabricConfig, FinePackConfig
from ..gpu.compute import ComputeModel
from ..interconnect.pcie import GENERATIONS, PCIE_GEN4, PCIeGeneration

#: Normalized parameter mapping: sorted ``(name, value)`` pairs.
Params = tuple[tuple[str, Any], ...]

_SCALARS = (type(None), bool, int, float, str)


def freeze_params(params: Mapping[str, Any] | Params | None) -> Params:
    """Normalize a parameter mapping to a sorted, hashable tuple.

    Values must be JSON scalars (None/bool/int/float/str) so specs stay
    canonically serializable and content-addressable.
    """
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    out = []
    for name, value in items:
        if not isinstance(name, str) or not name:
            raise TypeError(f"parameter names must be non-empty strings: {name!r}")
        if not isinstance(value, _SCALARS):
            raise TypeError(
                f"parameter {name!r} must be a JSON scalar for spec "
                f"hashing, got {type(value).__name__}"
            )
        out.append((name, value))
    out.sort(key=lambda kv: kv[0])
    if len({k for k, _ in out}) != len(out):
        raise ValueError(f"duplicate parameter names in {out!r}")
    return tuple(out)


def _require(value: Any, cls: type, what: str) -> Any:
    if not isinstance(value, cls):
        raise TypeError(
            f"{what} must be a frozen {cls.__name__}, got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True, slots=True)
class RunSpec:
    """Frozen description of one simulation run.

    Attributes
    ----------
    workload, workload_params:
        Registry name (:data:`repro.registry.workloads`) plus the
        constructor kwargs; together with ``n_gpus``/``iterations``/
        ``seed`` they address the workload trace.
    paradigm, paradigm_params:
        Registry name (:data:`repro.registry.paradigms`) plus
        constructor kwargs.  The ``finepack`` paradigm implicitly
        receives :attr:`finepack` unless ``config`` is overridden.
    generation:
        PCIe link parameters (a frozen :class:`PCIeGeneration`).
    topology, topology_params:
        Topology registry kind, or ``None`` for the system default
        (``single_switch``; single-GPU runs build no fabric at all),
        plus factory-specific keywords (``fanout``, ``planes``,
        ``oversubscription``, ...) as a normalized parameter tuple.
    scenario, intensity:
        Optional fault scenario as canonical JSON (the
        :class:`~repro.faults.schedule.FaultSchedule` schema) and the
        intensity the schedule is scaled to at run time.
    fidelity:
        ``"des"`` (default) runs the discrete-event simulator;
        ``"analytical"`` predicts the metrics in closed form via
        :func:`repro.analytical.predict_metrics` (no event loop; see
        ``docs/analytical.md`` for the cost model and its calibrated
        error budget).  Fault scenarios require ``"des"``.
    """

    workload: str
    paradigm: str = "finepack"
    workload_params: Params = ()
    paradigm_params: Params = ()
    n_gpus: int = 4
    iterations: int = 3
    seed: int = 7
    generation: PCIeGeneration = PCIE_GEN4
    finepack: FinePackConfig = field(default_factory=FinePackConfig)
    fabric: FabricConfig = field(default_factory=FabricConfig)
    compute: ComputeModel = field(default_factory=ComputeModel)
    barrier_ns: float = 2_000.0
    topology: str | None = None
    topology_params: Params = ()
    with_credits: bool = False
    scenario: str | None = None
    intensity: float = 1.0
    fidelity: str = "des"

    def __post_init__(self) -> None:
        if not self.workload:
            raise ValueError("spec needs a workload name")
        if self.fidelity not in ("des", "analytical"):
            raise ValueError(
                f"fidelity must be 'des' or 'analytical': {self.fidelity!r}"
            )
        if self.fidelity == "analytical" and self.scenario is not None:
            raise ValueError(
                "fault scenarios are event-ordered and cannot be modeled "
                "analytically; use fidelity='des' for this spec"
            )
        if self.n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1: {self.n_gpus}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1: {self.iterations}")
        if self.intensity < 0:
            raise ValueError(f"intensity must be >= 0: {self.intensity}")
        # Deep-freeze: normalize loose mappings, reject mutable
        # stand-ins for the frozen sub-configs.
        object.__setattr__(self, "workload_params", freeze_params(self.workload_params))
        object.__setattr__(self, "paradigm_params", freeze_params(self.paradigm_params))
        object.__setattr__(self, "topology_params", freeze_params(self.topology_params))
        _require(self.generation, PCIeGeneration, "generation")
        _require(self.finepack, FinePackConfig, "finepack")
        _require(self.fabric, FabricConfig, "fabric")
        _require(self.compute, ComputeModel, "compute")
        if self.scenario is not None:
            # Canonicalize so equal schedules hash equally regardless
            # of the caller's JSON formatting.
            from ..faults.schedule import FaultSchedule

            canonical = FaultSchedule.from_json(self.scenario).to_json(indent=None)
            object.__setattr__(self, "scenario", canonical)

    # -- derived constructors ---------------------------------------

    @classmethod
    def for_workload(
        cls,
        workload,
        paradigm: str = "finepack",
        *,
        paradigm_params: Mapping[str, Any] | Params = (),
        **overrides,
    ) -> "RunSpec":
        """Spec for a workload instance, class, or registry name.

        Instances contribute their :meth:`spec_params`; classes and
        names use constructor defaults.  Remaining keyword arguments
        are spec fields (``n_gpus=2, seed=11, ...``).
        """
        name, params = _workload_identity(workload)
        return cls(
            workload=name,
            workload_params=freeze_params(params),
            paradigm=paradigm,
            paradigm_params=freeze_params(paradigm_params),
            **overrides,
        )

    def with_options(self, **overrides) -> "RunSpec":
        """A copy with the given fields replaced (params may be dicts)."""
        for key in ("workload_params", "paradigm_params", "topology_params"):
            if key in overrides:
                overrides[key] = freeze_params(overrides[key])
        return replace(self, **overrides)

    def single_gpu_baseline(self) -> "RunSpec":
        """The 1-GPU infinite-bandwidth run speedups normalize against."""
        return self.with_options(
            n_gpus=1,
            paradigm="infinite",
            paradigm_params=(),
            topology=None,
            topology_params=(),
            with_credits=False,
            scenario=None,
            intensity=0.0,
            fabric=FabricConfig(),
        )

    # -- content addressing -----------------------------------------

    def canonical(self) -> dict:
        """JSON-able dict of every field (stable key order)."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, (PCIeGeneration, FinePackConfig, FabricConfig, ComputeModel)):
                v = asdict(v)
            elif isinstance(v, tuple):
                v = [list(kv) for kv in v]
            out[f.name] = v
        return out

    def trace_inputs(self) -> dict:
        """The sub-dict that determines the workload trace."""
        return {
            "workload": self.workload,
            "workload_params": [list(kv) for kv in self.workload_params],
            "n_gpus": self.n_gpus,
            "iterations": self.iterations,
            "seed": self.seed,
        }

    def key(self) -> str:
        """Content hash of the full run description."""
        return _digest(self.canonical())

    def trace_key(self) -> str:
        """Content hash of the trace inputs (the trace-cache address)."""
        return _digest(self.trace_inputs())

    # -- component construction (used by RunContext) ----------------

    def build_workload(self):
        """Instantiate the workload via the registry."""
        from .. import registry

        return registry.workloads.resolve(self.workload)(
            **dict(self.workload_params)
        )

    def build_paradigm(self):
        """Instantiate the paradigm via the registry.

        ``finepack`` receives the spec's :attr:`finepack` config unless
        ``paradigm_params`` overrides ``config``.
        """
        from .. import registry
        from ..sim.paradigms import FinePackParadigm

        cls = registry.paradigms.resolve(self.paradigm)
        kwargs = dict(self.paradigm_params)
        if issubclass(cls, FinePackParadigm) and "config" not in kwargs:
            kwargs["config"] = self.finepack
        return cls(**kwargs)

    def build_schedule(self):
        """The scenario scaled to :attr:`intensity`, or ``None``."""
        if self.scenario is None:
            return None
        from ..faults.schedule import FaultSchedule

        return FaultSchedule.from_json(self.scenario).scaled(self.intensity)


def _workload_identity(workload) -> tuple[str, Params]:
    """``(registry name, constructor params)`` for name/class/instance."""
    from .. import registry
    from ..workloads.base import MultiGPUWorkload

    if isinstance(workload, str):
        registry.workloads.resolve(workload)  # raise early, with suggestions
        return workload, ()
    if isinstance(workload, type):
        name = getattr(workload, "name", None)
        if not name or registry.workloads.get(name) is not workload:
            raise ValueError(
                f"workload class {workload.__name__} is not registered; "
                f"add @registry.workloads.register(...)"
            )
        return name, ()
    if isinstance(workload, MultiGPUWorkload):
        name = workload.name
        if registry.workloads.get(name) is not type(workload):
            raise ValueError(
                f"workload instance {workload!r} is not the registered "
                f"{name!r} class; register it to build specs from it"
            )
        return name, freeze_params(workload.spec_params())
    raise TypeError(f"cannot build a spec from {workload!r}")


def _digest(obj: dict) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
