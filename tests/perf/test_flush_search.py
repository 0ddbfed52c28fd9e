"""The phase kernel's flush search against the remote write queue.

:func:`repro.core.phase_kernel._flush_search` finds every partition's
flushes over a whole phase, one step per flush;
:func:`repro.core.phase_kernel._scan_destination` replays one
partition piece by piece through a ``QueuePartition`` and is the
oracle.  Every flush -- position, reason, stores absorbed, window base
and destination -- must match.  Phases with atomics or a far region
check the scan route, which takes them whole.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import phase_kernel
from repro.core.config import FinePackConfig
from repro.core.remote_write_queue import FlushReason
from repro.run import RunContext, RunSpec, TraceCache

#: How the generator places each op relative to the stream so far.
SHAPES = ("fresh", "duplicate", "adjacent", "overlap", "gap_fill", "other_dst")


def _ops(
    rng: random.Random,
    n_ops: int,
    n_dsts: int,
    entry: int,
    p_atomic: float,
    far: bool,
):
    """``n_ops`` ops over destinations ``1..n_dsts`` on a few hot lines
    of a few regions, one of them at 2^60 when ``far``.

    A ``gap_fill`` writes two runs of one line and then the bytes
    between them, so the last piece lowers the committed cost; an
    ``other_dst`` sends the previous op's bytes to another destination;
    an atomic lands on bytes a recent store buffered about half the
    time.
    """
    lines = rng.randint(1, 24)
    # The far base spans more lines than the search's sort key can
    # pack with positions, so phases that reach it take the scan.
    bases = (0, 4096, 1 << 20, *((1 << 60,) if far else ()))
    ops: list[tuple[int, int, int, bool]] = []
    while len(ops) < n_ops:
        shape = rng.choice(SHAPES) if ops else "fresh"
        dst = rng.randint(1, n_dsts)
        size = rng.randint(1, 2 * entry)
        if rng.random() < p_atomic:
            stores = [op for op in ops[-8:] if not op[3]]
            if stores and rng.random() < 0.5:
                addr, _, dst, _ = rng.choice(stores)
            else:
                addr = rng.choice(bases) + rng.randrange(lines * entry)
            ops.append((addr, rng.choice((4, 8)), dst, True))
            continue
        prev_addr, prev_size, prev_dst, _ = ops[-1] if ops else (0, 1, dst, False)
        if shape == "fresh":
            addr = rng.choice(bases) + rng.randrange(lines * entry)
        elif shape == "duplicate":
            addr, size, dst = prev_addr, prev_size, prev_dst
        elif shape == "adjacent":
            addr, dst = prev_addr + prev_size, prev_dst
        elif shape == "overlap":
            addr, dst = prev_addr + prev_size // 2, prev_dst
        elif shape == "other_dst":
            addr, size = prev_addr, prev_size
            dst = prev_dst % n_dsts + 1
        else:
            # Runs [0, lo] and [after, ...) of one line, then the gap.
            line = rng.choice(bases) + rng.randrange(lines) * entry
            lo = rng.randrange(entry - 2)
            after = lo + 1 + rng.randint(1, entry - lo - 2)
            ops.append((line, lo + 1, dst, False))
            ops.append((line + after, rng.randint(1, entry - after), dst, False))
            addr, size = line + lo + 1, after - lo - 1
        ops.append((addr, size, dst, False))
    return ops[:n_ops]


@st.composite
def _phases(draw):
    """A small geometry that forces every flush reason, and one phase.

    Two-byte sub-headers give 64 B windows (window misses inside one
    line); a payload of a few entries fills fast; 1-4 queue entries
    fill faster still.  Half the phases have no atomics and three in
    four no far region, so about three in eight take the search."""
    subheader = draw(st.sampled_from([2, 3, 5]))
    entry = draw(st.sampled_from([32, 64, 128]))
    config = FinePackConfig(
        subheader_bytes=subheader,
        entry_bytes=entry,
        queue_entries_per_partition=draw(st.one_of(st.integers(1, 4), st.just(64))),
        max_payload_bytes=draw(
            st.one_of(
                st.integers(1, 4).map(lambda k: k * (entry + subheader) + subheader),
                st.just(4096),
            )
        ),
    )
    n_dsts = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ops = _ops(
        rng,
        draw(st.integers(1, 1500)),
        n_dsts,
        entry,
        draw(st.sampled_from([0.0, 0.0, 0.02, 0.2])),
        draw(st.integers(0, 3)) == 0,
    )
    columns = (
        np.array([op[0] for op in ops], dtype=np.int64),
        np.array([op[1] for op in ops], dtype=np.int64),
        np.array([op[2] for op in ops], dtype=np.int64),
        np.array([op[3] for op in ops], dtype=bool),
    )
    return config, n_dsts, columns


def _rows(columns) -> list[tuple]:
    position, reason, absorbed, base, dst = columns
    return list(
        zip(
            position.tolist(),
            [phase_kernel._REASONS[r] for r in reason.tolist()],
            absorbed.tolist(),
            base.tolist(),
            dst.tolist(),
        )
    )


def _oracle(ev_start, ev_len, ev_dst, config) -> list[tuple]:
    """Whole-stream ``_scan_destination`` per destination."""
    rows = []
    bounds = [0, *(np.flatnonzero(np.diff(ev_dst)) + 1).tolist(), ev_dst.size]
    for lo, hi in zip(bounds, bounds[1:]):
        for flush in phase_kernel._scan_destination(
            ev_start[lo:hi].tolist(), ev_len[lo:hi].tolist(), lo, config
        ):
            rows.append((*flush, int(ev_dst[lo])))
    return rows


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_phases())
def test_search_matches_scan(case):
    config, n_dsts, (addrs, sizes, dsts, is_atomic) = case
    _, ev_start, ev_len, ev_dst = phase_kernel._phase_events(
        addrs, sizes, dsts, is_atomic, config.entry_bytes, n_dsts + 1
    )
    got = phase_kernel._flush_search(ev_start, ev_len, ev_dst, config)
    assert _rows(got) == _oracle(ev_start, ev_len, ev_dst, config)


class TestScanDestination:
    """The oracle's own contract: positions count from ``first_pos``,
    the release sits one past the last event, atomics carry negated
    sizes, and ``first_only`` stops at the first flush."""

    config = FinePackConfig()

    def scan(self, starts, lengths, first_pos=0, config=None, first_only=False):
        return phase_kernel._scan_destination(
            starts, lengths, first_pos, config or self.config, first_only=first_only
        )

    def test_release_sits_past_the_last_event(self):
        base = 3 * self.config.window_bytes
        got = self.scan([base, base + 8, base + 256], [8, 8, 8], first_pos=10)
        assert got == [(13, FlushReason.RELEASE, 3, base)]

    def test_window_miss_and_first_only(self):
        w = self.config.window_bytes
        starts, lengths = [0, 8, w, w + 128], [8, 8, 8, 8]
        assert self.scan(starts, lengths) == [
            (2, FlushReason.WINDOW_MISS, 2, 0),
            (4, FlushReason.RELEASE, 2, w),
        ]
        assert self.scan(starts, lengths, first_only=True) == [
            (2, FlushReason.WINDOW_MISS, 2, 0)
        ]
        # With no forced flush, first_only still ends in the release.
        assert self.scan([0, 8], [8, 8], 5, first_only=True) == [
            (7, FlushReason.RELEASE, 2, 0)
        ]

    def test_payload_full(self):
        # Each full line costs 128 B + a 5 B sub-header: 30 lines
        # commit 3990 B of 4096, so the 31st (index 30) does not fit.
        line = self.config.entry_bytes
        starts = [i * line for i in range(31)]
        assert self.scan(starts, [line] * 31) == [
            (30, FlushReason.PAYLOAD_FULL, 30, 0),
            (31, FlushReason.RELEASE, 1, 0),
        ]

    def test_entries_full_counts_distinct_lines(self):
        config = FinePackConfig(queue_entries_per_partition=2)
        # A repeat of a buffered line needs no new entry.
        assert self.scan([0, 128, 8], [8, 8, 8], config=config) == [
            (3, FlushReason.RELEASE, 3, 0)
        ]
        assert self.scan([0, 128, 256], [8, 8, 8], config=config) == [
            (2, FlushReason.ENTRIES_FULL, 2, 0),
            (3, FlushReason.RELEASE, 1, 0),
        ]

    def test_atomic_flushes_only_on_overlap(self):
        # Atomics at 64 (no buffered byte) and 4 (overlaps [0, 8)).
        assert self.scan([0, 64, 4, 200], [8, -8, -8, 8]) == [
            (2, FlushReason.ATOMIC_CONFLICT, 1, 0),
            (4, FlushReason.RELEASE, 1, 0),
        ]
        # An atomic on an empty partition, or no events at all, flushes
        # nothing.
        assert self.scan([0], [-8]) == []
        assert self.scan([], []) == []


def test_same_line_on_two_destinations_is_no_repeat():
    # Both destinations get the same 300 distinct lines.  Within each
    # destination no line repeats, so every partition settles in one
    # step: none may reach the scalar scan.
    config = FinePackConfig(queue_entries_per_partition=2)
    addrs = np.tile(np.arange(300, dtype=np.int64) * 128, 2)
    dsts = np.repeat(np.array([1, 2], dtype=np.int64), 300)
    sizes = np.full(addrs.size, 8, dtype=np.int64)
    columns = phase_kernel._phase_events(
        addrs, sizes, dsts, np.zeros(addrs.size, dtype=bool), 128, 3
    )[1:]
    scan = mock.Mock(side_effect=phase_kernel._scan_destination)
    with mock.patch.object(phase_kernel, "_scan_destination", scan):
        got = _rows(phase_kernel._flush_search(*columns, config))
    scan.assert_not_called()
    assert got == _oracle(*columns, config)
    assert Counter(row[1].value for row in got) == {
        "entries_full": 298,
        "release": 2,
    }


def test_fallback_costs_what_its_partition_does():
    # One destination of distinct full lines in one window, every
    # eighth line stored twice: most partitions fill their payload
    # after a repeat, so the search hands them to the scan.  Each scan
    # must see about its own partition, not the rest of the
    # destination.
    config = FinePackConfig()
    lines = np.arange(20_000, dtype=np.int64)
    lines -= lines // 8
    addrs = lines * config.entry_bytes
    sizes = np.full(addrs.size, config.entry_bytes, dtype=np.int64)
    columns = phase_kernel._phase_events(
        addrs,
        sizes,
        np.ones(addrs.size, dtype=np.int64),
        np.zeros(addrs.size, dtype=bool),
        config.entry_bytes,
        2,
    )[1:]
    fed: list[int] = []
    scan = phase_kernel._scan_destination

    def counted(starts, lengths, first_pos, config, first_only=False):
        fed.append(len(starts))
        return scan(starts, lengths, first_pos, config, first_only=first_only)

    with mock.patch.object(phase_kernel, "_scan_destination", counted):
        got = _rows(phase_kernel._flush_search(*columns, config))
    assert got == _oracle(*columns, config)
    assert len(fed) > len(got) // 2
    assert sum(fed) <= 4 * addrs.size


#: Seed-7 4-GPU HPC cells of the benchmark's FinePack column.
HPC = ("als", "ct", "diffusion", "eqwp", "hit", "jacobi", "pagerank", "sssp")


def test_fallback_census():
    # Every partition the search cannot settle in O(1) runs the scalar
    # scan to its first flush; no phase of these cells is empty or has
    # atomics, so none scans a destination whole.  The count is
    # pinned, so a change that sends a workload back to the loop fails
    # here.
    calls: Counter[str] = Counter()
    scan = phase_kernel._scan_destination

    def counted(*args, first_only=False):
        calls["partition" if first_only else "destination"] += 1
        return scan(*args, first_only=first_only)

    cache = TraceCache()
    with mock.patch.object(phase_kernel, "_scan_destination", counted):
        for workload in HPC:
            RunContext(
                RunSpec(workload=workload, paradigm="finepack", seed=7),
                trace_cache=cache,
            ).run()
    assert calls == {"partition": 12}
