"""FinePack core: the paper's contribution.

Public surface:

* :class:`FinePackConfig` (Tables II/III), :data:`DEFAULT_CONFIG`.
* :class:`FinePackPacket` / :class:`SubTransaction` (Table I, Fig. 6).
* :class:`RemoteWriteQueue` / :class:`QueuePartition` (Fig. 8).
* :class:`Packetizer`, :class:`Depacketizer` (Fig. 7).
* The :class:`EgressEngine` protocol and its engines:
  :class:`FinePackEgress`, :class:`PassthroughEgress`,
  :class:`WriteCombiningEgress`.
* :class:`ConfigPacketDesign` -- the Sec. VI-B alternate design.
"""

from .alt_designs import ConfigPacketDesign
from .config import (
    DEFAULT_CONFIG,
    LENGTH_FIELD_BITS,
    FinePackConfig,
    addressable_window,
    offset_bits_for,
)
from .depacketizer import Depacketizer, DisaggregatedStore
from .nvlink_embedding import NVLinkFinePackEmbedding
from .egress import (
    EgressEngine,
    FinePackEgress,
    PassthroughEgress,
    WriteCombiningEgress,
)
from .packet import FinePackPacket, SubTransaction
from .packetizer import Packetizer
from .remote_write_queue import (
    FlushedWindow,
    FlushReason,
    MultiWindowPartition,
    QueueEntry,
    QueuePartition,
    RemoteWriteQueue,
)

__all__ = [
    "ConfigPacketDesign",
    "DEFAULT_CONFIG",
    "LENGTH_FIELD_BITS",
    "FinePackConfig",
    "addressable_window",
    "offset_bits_for",
    "Depacketizer",
    "DisaggregatedStore",
    "EgressEngine",
    "FinePackEgress",
    "PassthroughEgress",
    "WriteCombiningEgress",
    "FinePackPacket",
    "SubTransaction",
    "Packetizer",
    "FlushedWindow",
    "FlushReason",
    "MultiWindowPartition",
    "NVLinkFinePackEmbedding",
    "QueueEntry",
    "QueuePartition",
    "RemoteWriteQueue",
]
