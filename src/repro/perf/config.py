"""The process-global fast/scalar switch.

The vectorized fast paths change *how* the simulator computes, never
*what* it computes: each selects between a scalar reference
implementation and a numpy-batched one that is proven byte-identical in
``RunMetrics``/``LinkStats`` (see ``tests/perf/test_equivalence.py``).
Because the switch cannot affect results, it is deliberately **not**
part of :class:`~repro.run.spec.RunSpec` -- a spec's content hash
addresses *experiments*, and two runs of the same spec in either mode
must produce the same bytes.

Fast mode is the default.  Scalar mode selects the reference side of
all four fast/scalar pairs at once: remote-write-queue entry costing,
packetizer run extraction, batch link transport, and FinePack's
columnar phase entry (kernel + memo).
Components read the switch when they are built (FinePack's columnar
entry reads it per phase), so build and run them inside
:func:`scalar_reference` (``repro profile --scalar`` does).
"""

from __future__ import annotations

from contextlib import contextmanager

_scalar = False


def scalar_mode() -> bool:
    """Whether components built now take the scalar reference paths."""
    return _scalar


@contextmanager
def scalar_reference(enabled: bool = True):
    """Scope scalar mode (``enabled=False`` scopes fast mode)."""
    global _scalar
    previous = _scalar
    _scalar = enabled
    try:
        yield
    finally:
        _scalar = previous
