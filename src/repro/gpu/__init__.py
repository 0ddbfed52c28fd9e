"""GPU-side substrate: memory layout, warp coalescing, caches, HBM,
compute timing and the scoped weak memory model.

The system simulator reads two of these per run: the spec's
:class:`ComputeModel` times every kernel and a default
:class:`HBMModel` sets the ingress drain rate.  The memory-side
:class:`L2Cache` is a standalone model of the paper's Sec. III
argument (remote stores bypass the L2); no timing path reads it.
"""

from .caches import CacheStats, L2Cache, SetAssociativeCache
from .coalescer import LINE_BYTES, WARP_SIZE, coalesce_stream, size_histogram
from .compute import GV100, ComputeModel, GPUParams, KernelWork
from .consistency import OrderingChecker, OrderingViolation, ProgramStore, Scope
from .hbm import HBMModel
from .memory import (
    APERTURE_BITS,
    APERTURE_BYTES,
    Allocator,
    MemorySpace,
    ReplicatedBuffer,
    gpu_base,
    owner_of,
)

__all__ = [
    "CacheStats",
    "L2Cache",
    "SetAssociativeCache",
    "LINE_BYTES",
    "WARP_SIZE",
    "coalesce_stream",
    "size_histogram",
    "GV100",
    "ComputeModel",
    "GPUParams",
    "KernelWork",
    "OrderingChecker",
    "OrderingViolation",
    "ProgramStore",
    "Scope",
    "HBMModel",
    "APERTURE_BITS",
    "APERTURE_BYTES",
    "Allocator",
    "MemorySpace",
    "ReplicatedBuffer",
    "gpu_base",
    "owner_of",
]
