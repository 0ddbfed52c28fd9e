"""FinePack reproduction library.

A full reimplementation of the system evaluated in *FinePack:
Transparently Improving the Efficiency of Fine-Grained Transfers in
Multi-GPU Systems* (HPCA 2023): the FinePack hardware (remote write
queue, packetizer, de-packetizer, packet format), the multi-GPU
simulation substrate (GPU compute/caches/coalescing, PCIe/NVLink
interconnects, discrete-event system model), the competing
communication paradigms, and the eight-application workload suite.

Every experiment is a :class:`RunSpec` run by the run layer (see
``docs/architecture.md``).  Quick start -- the paper's core comparison
for one workload, as speedups over the single-GPU baseline::

    from repro import RunContext, RunSpec, labeled_sweep

    spec = RunSpec(workload="jacobi", paradigm="finepack", n_gpus=4)
    metrics = RunContext(spec).run()
    sweep = labeled_sweep(
        {p: spec.with_options(paradigm=p) for p in ("p2p", "dma", "finepack")},
        jobs=4,
    )
    print({p.label: p.speedup for p in sweep.result.points})

See ``examples/`` for complete scripts and ``benchmarks/`` for the
per-figure reproduction harness.
"""

from .core import (
    DEFAULT_CONFIG,
    Depacketizer,
    FinePackConfig,
    FinePackEgress,
    FinePackPacket,
    Packetizer,
    PassthroughEgress,
    RemoteWriteQueue,
    SubTransaction,
    WriteCombiningEgress,
)
from .interconnect import (
    PCIE_GEN3,
    PCIE_GEN4,
    PCIE_GEN5,
    PCIE_GEN6,
    NVLinkProtocol,
    PCIeProtocol,
    single_switch,
    two_level_tree,
)
from . import registry
from .run import (
    RunContext,
    RunOutcome,
    RunSpec,
    TraceCache,
    execute_grid,
    labeled_sweep,
)
from .sim import MultiGPUSystem, RunMetrics, make_paradigm
from .workloads import (
    ALSWorkload,
    CTWorkload,
    DiffusionWorkload,
    EQWPWorkload,
    HITWorkload,
    JacobiWorkload,
    PagerankWorkload,
    SSSPWorkload,
    default_suite,
    small_suite,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "Depacketizer",
    "FinePackConfig",
    "FinePackEgress",
    "FinePackPacket",
    "Packetizer",
    "PassthroughEgress",
    "RemoteWriteQueue",
    "SubTransaction",
    "WriteCombiningEgress",
    "PCIE_GEN3",
    "PCIE_GEN4",
    "PCIE_GEN5",
    "PCIE_GEN6",
    "NVLinkProtocol",
    "PCIeProtocol",
    "single_switch",
    "two_level_tree",
    "registry",
    "RunSpec",
    "RunContext",
    "RunOutcome",
    "TraceCache",
    "execute_grid",
    "labeled_sweep",
    "MultiGPUSystem",
    "RunMetrics",
    "make_paradigm",
    "ALSWorkload",
    "CTWorkload",
    "DiffusionWorkload",
    "EQWPWorkload",
    "HITWorkload",
    "JacobiWorkload",
    "PagerankWorkload",
    "SSSPWorkload",
    "default_suite",
    "small_suite",
    "__version__",
]
