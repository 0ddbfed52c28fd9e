"""Warp-level store coalescing (SM + L1 behaviour).

Per the paper's Sec. III, a warp of 32 threads issuing stores in one
instruction is coalesced by the L1 into transactions of up to 128 B: the
byte ranges touched by the warp are merged, and each maximal contiguous
run -- clipped at 128 B cache-line boundaries -- leaves the L1 as one
write transaction.  Remote (peer-GPU) stores receive *no further*
coalescing beyond this point on real hardware; the resulting transaction
stream is exactly what FinePack's remote write queue sees, and its size
distribution is what the paper's Figure 4 plots.

The implementation is fully vectorized: a whole trace of thread-level
stores (grouped into warps of ``warp_size`` consecutive entries) is
coalesced with a single sort + interval merge, using a per-warp address
offset trick to prevent merging across warp instructions.
"""

from __future__ import annotations

import numpy as np

from ..perf import profiler as _prof

#: L1/L2 cache line size (Table III).
LINE_BYTES = 128

#: Threads per warp (Table III).
WARP_SIZE = 32

#: Separation between warps in the virtual merge space.  Must be a
#: multiple of LINE_BYTES and exceed any real address.
_WARP_STRIDE = 1 << 48


def coalesce_stream(
    addrs: np.ndarray, sizes: np.ndarray, warp_size: int = WARP_SIZE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coalesce a thread-level store trace into L1 egress transactions.

    Every ``warp_size`` consecutive entries of ``addrs``/``sizes`` form
    one warp instruction (a trailing partial warp is allowed -- it
    models a partially active warp).

    Parameters
    ----------
    addrs, sizes:
        Per-thread store addresses and byte counts, in program order.

    Returns
    -------
    (txn_addrs, txn_sizes, txn_warp):
        Coalesced transaction start addresses, byte lengths, and the
        warp-instruction index each transaction came from, ordered by
        warp then address.  Each transaction is contiguous and lies
        within a single 128-byte line.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if addrs.shape != sizes.shape or addrs.ndim != 1:
        raise ValueError("addrs and sizes must be equal-length 1-D arrays")
    if addrs.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    if (sizes <= 0).any():
        raise ValueError("store sizes must be positive")
    if (addrs < 0).any():
        raise ValueError("addresses must be non-negative")
    if addrs.max() + sizes.max() >= _WARP_STRIDE:
        raise ValueError("addresses exceed the supported 48-bit range")

    prof = _prof.ACTIVE
    if prof is not None:
        prof.begin("coalescer")
    warp = np.arange(addrs.size, dtype=np.int64) // warp_size
    vstart = addrs + warp * _WARP_STRIDE
    vend = vstart + sizes

    # Warps occupy ascending slices of the virtual space, so a stream
    # whose stores ascend within each warp is already sorted.
    if not (vstart[1:] >= vstart[:-1]).all():
        order = np.argsort(vstart, kind="stable")
        vstart, vend = vstart[order], vend[order]

    # Merge overlapping/adjacent intervals: a new run begins wherever the
    # interval start exceeds the running maximum of previous ends.  Every
    # earlier run ended before a run starts, so the running maximum at a
    # run's last interval is that run's end.
    running_end = np.maximum.accumulate(vend)
    new_run = np.empty(vstart.size + 1, dtype=bool)
    new_run[0] = new_run[-1] = True
    np.greater(vstart[1:], running_end[:-1], out=new_run[1:-1])
    run_start = vstart[new_run[:-1]]
    run_end = running_end[new_run[1:]]

    # Split each merged run at 128 B line boundaries.  _WARP_STRIDE is a
    # multiple of LINE_BYTES so line boundaries are warp-consistent.
    first_line = run_start // LINE_BYTES
    pieces = (run_end - 1) // LINE_BYTES - first_line + 1
    # Line of each piece: its run's first line plus its index in the run.
    piece_ends = np.cumsum(pieces)
    line = np.arange(int(piece_ends[-1])) + np.repeat(
        first_line - (piece_ends - pieces), pieces
    )
    line_base = line * LINE_BYTES
    tx_start = np.maximum(np.repeat(run_start, pieces), line_base)
    tx_end = np.minimum(np.repeat(run_end, pieces), line_base + LINE_BYTES)

    txn_warp = tx_start // _WARP_STRIDE
    txn_addrs = tx_start - txn_warp * _WARP_STRIDE
    txn_sizes = tx_end - tx_start
    if prof is not None:
        prof.end()
    return txn_addrs, txn_sizes, txn_warp


def size_histogram(
    sizes: np.ndarray, buckets: tuple[int, ...] = (4, 8, 16, 32, 64, 128)
) -> dict[str, float]:
    """Fraction of transactions in each size bucket (Figure 4 format).

    Bucket ``"<=k"`` counts transactions whose size is at most ``k`` and
    greater than the previous bucket bound.
    """
    sizes = np.asarray(sizes)
    if sizes.size == 0:
        return {f"<={b}B": 0.0 for b in buckets}
    out: dict[str, float] = {}
    prev = 0
    for b in buckets:
        frac = float(((sizes > prev) & (sizes <= b)).mean())
        out[f"<={b}B"] = frac
        prev = b
    bigger = float((sizes > prev).mean())
    if bigger:
        out[f">{prev}B"] = bigger
    return out
