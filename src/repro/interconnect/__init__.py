"""Interconnect substrate: byte-accurate PCIe/NVLink models, links,
flow control and switched topologies.

The public surface other packages use:

* :class:`~repro.interconnect.message.WireMessage` / ``MessageKind`` --
  the unit of traffic.
* :class:`~repro.interconnect.pcie.PCIeProtocol` and the
  ``PCIE_GEN3..6`` generation constants.
* :class:`~repro.interconnect.nvlink.NVLinkProtocol`.
* :func:`~repro.interconnect.topology.single_switch` /
  :func:`~repro.interconnect.topology.two_level_tree` /
  :func:`~repro.interconnect.topology.fat_tree` /
  :func:`~repro.interconnect.topology.switched_mesh` producing a
  :class:`~repro.interconnect.topology.Topology`, and
  :func:`~repro.interconnect.topology.make_topology`, which resolves
  one of them by registry name.
"""

from .flowcontrol import CreditPool
from .link import Link, LinkStats
from .message import MessageKind, WireMessage
from .nvlink import NVLinkProtocol
from .pcie import (
    GENERATIONS,
    PCIE_GEN3,
    PCIE_GEN4,
    PCIE_GEN5,
    PCIE_GEN6,
    PCIeGeneration,
    PCIeProtocol,
)
from .topology import (
    Topology,
    fat_tree,
    fully_connected,
    make_topology,
    single_switch,
    switched_mesh,
    two_level_tree,
)

__all__ = [
    "CreditPool",
    "Link",
    "LinkStats",
    "MessageKind",
    "WireMessage",
    "NVLinkProtocol",
    "GENERATIONS",
    "PCIE_GEN3",
    "PCIE_GEN4",
    "PCIE_GEN5",
    "PCIE_GEN6",
    "PCIeGeneration",
    "PCIeProtocol",
    "Topology",
    "fat_tree",
    "fully_connected",
    "make_topology",
    "single_switch",
    "switched_mesh",
    "two_level_tree",
]
