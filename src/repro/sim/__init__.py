"""Simulation layer: discrete-event engine, byte-accounting metrics,
communication paradigms and the multi-GPU system.  Experiments are
composed and run by :mod:`repro.run`."""

from .engine import Engine
from .metrics import (
    ByteBreakdown,
    LinkUtilization,
    PacketStats,
    RunMetrics,
    classify_messages,
)
from .replay import EventReplaySession, ReplayError, ReplayReport, phase_events
from .timeline import render_comparison, render_timeline
from .validation import ValidationError, ValidationReport, validate
from .gps import SubscriptionStats, SubscriptionTable
from .paradigms import (
    PARADIGMS,
    BulkDMAParadigm,
    FinePackParadigm,
    GPSParadigm,
    InfiniteBandwidthParadigm,
    P2PStoreParadigm,
    Paradigm,
    SlicedDMAParadigm,
    WriteCombiningParadigm,
    make_paradigm,
)
from .system import MultiGPUSystem

__all__ = [
    "Engine",
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
    "classify_messages",
    "PARADIGMS",
    "BulkDMAParadigm",
    "FinePackParadigm",
    "GPSParadigm",
    "InfiniteBandwidthParadigm",
    "P2PStoreParadigm",
    "Paradigm",
    "SlicedDMAParadigm",
    "SubscriptionStats",
    "SubscriptionTable",
    "WriteCombiningParadigm",
    "make_paradigm",
    "MultiGPUSystem",
]
