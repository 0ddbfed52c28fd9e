"""Simulation layer: the multi-GPU system (the DES), byte-accounting
metrics and communication paradigms.  Experiments are composed and run
by :mod:`repro.run`."""

from .metrics import (
    ByteBreakdown,
    LinkUtilization,
    PacketStats,
    RunMetrics,
    classify_egress,
)
from .replay import EventReplaySession, ReplayError, ReplayReport, phase_events
from .timeline import render_comparison, render_timeline
from .validation import ValidationError, ValidationReport, validate
from .gps import SubscriptionTable
from .paradigms import (
    BulkDMAParadigm,
    FinePackParadigm,
    GPSParadigm,
    InfiniteBandwidthParadigm,
    P2PStoreParadigm,
    Paradigm,
    SlicedDMAParadigm,
    WriteCombiningParadigm,
)
from .system import MultiGPUSystem

__all__ = [
    "ByteBreakdown",
    "LinkUtilization",
    "EventReplaySession",
    "ReplayError",
    "ReplayReport",
    "phase_events",
    "render_comparison",
    "render_timeline",
    "ValidationError",
    "ValidationReport",
    "validate",
    "PacketStats",
    "RunMetrics",
    "classify_egress",
    "BulkDMAParadigm",
    "FinePackParadigm",
    "GPSParadigm",
    "InfiniteBandwidthParadigm",
    "P2PStoreParadigm",
    "Paradigm",
    "SlicedDMAParadigm",
    "SubscriptionTable",
    "WriteCombiningParadigm",
    "MultiGPUSystem",
]
