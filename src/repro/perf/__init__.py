"""Hot-path acceleration: fast/scalar switch, stage profiler, fast paths.

Three pieces (see ``docs/performance.md``):

* :func:`scalar_mode` / :func:`scalar_reference` -- the process-global
  switch selecting the scalar reference paths instead of the
  numpy-vectorized fast paths (fast by default; every pair proven
  byte-identical).
* :class:`StageProfiler` / :func:`profiled` -- wall-clock attribution
  to named simulator stages, driving ``repro profile``.
* The batch machinery itself lives in :mod:`repro.perf.batch` and
  :mod:`repro.perf.transport`, and the profiling entry points in
  :mod:`repro.perf.harness`; they are imported explicitly by their
  callers (not re-exported here) to keep this package importable from
  the innermost simulator modules without cycles.
"""

from .config import scalar_mode, scalar_reference
from .profiler import STAGES, StageProfiler, profiled

__all__ = [
    "scalar_mode",
    "scalar_reference",
    "STAGES",
    "StageProfiler",
    "profiled",
]
