#!/usr/bin/env python3
"""FinePack hardware walkthrough: follow stores through the pipeline.

Drives a handful of remote stores through each FinePack component and
prints what the hardware does at every step:

  remote write queue  ->  packetizer  ->  wire bytes  ->  de-packetizer

This exercises the same classes the simulator uses, at human scale.

    python examples/packet_walkthrough.py
"""

from repro.core import (
    Depacketizer,
    FinePackConfig,
    FlushReason,
    Packetizer,
    QueuePartition,
)
from repro.interconnect import PCIE_GEN4, PCIeProtocol


def main() -> None:
    config = FinePackConfig()  # Table III: 5 B sub-headers, 1 GB window
    protocol = PCIeProtocol(PCIE_GEN4)
    partition = QueuePartition(config, dst=1)

    base = 1 << 34  # somewhere in GPU 1's memory
    stores = [
        (base + 0x000, 8, b"AAAAAAAA"),
        (base + 0x008, 8, b"BBBBBBBB"),   # adjacent: joins A's run
        (base + 0x140, 4, b"CCCC"),       # different cache line
        (base + 0x000, 8, b"DDDDDDDD"),   # overwrites A in place
        (base + 0x9000, 16, b"E" * 16),   # far away, same 1 GB window
    ]

    print(f"FinePack config: {config.subheader_bytes} B sub-headers, "
          f"{config.offset_bits}-bit offsets, {config.window_bytes >> 20} MB+ window\n")

    print("--- remote write queue ---")
    for addr, size, data in stores:
        flushed = partition.insert(addr, size, data)
        status = "flushed!" if flushed else (
            f"buffered (entries={partition.entry_count}, "
            f"available payload={partition.available_payload} B)"
        )
        print(f"store {size:2d} B @ +{addr - base:#07x}: {status}")
    print(f"{len(stores)} stores held in {partition.entry_count} entries")

    print("\n--- kernel-end release: flush + packetize ---")
    window = partition.flush(FlushReason.RELEASE)
    packetizer = Packetizer(config, protocol)
    packet = packetizer.packetize(window)
    print(f"base address: {packet.base_addr:#x}")
    for sub in packet.subs:
        print(f"  sub-transaction: offset +{sub.offset:#07x}, {sub.length} B "
              f"-> {sub.data!r}")
    print(f"stores absorbed: {packet.stores_absorbed}")

    payload, overhead = packet.wire_cost(config, protocol)
    single = sum(sum(protocol.store_wire_cost(s)) for _, s, _ in stores)
    print(f"\n--- on the wire ---")
    print(f"FinePack: {payload} B payload + {overhead} B overhead "
          f"= {payload + overhead} B")
    print(f"raw P2P stores would cost {single} B "
          f"({single / (payload + overhead):.2f}x more)")

    print("\n--- de-packetizer at the destination ---")
    raw = packet.encode_payload(config)
    depack = Depacketizer(config)
    for s in depack.decode_wire_payload(packet.base_addr, raw):
        print(f"  write {s.size:2d} B @ +{s.addr - base:#07x}: {s.data!r}")
    print("\nNote: the first store's 'AAAAAAAA' never crossed the wire -- "
          "it was overwritten in the queue (weak memory model, Fig. 5).")


if __name__ == "__main__":
    main()
