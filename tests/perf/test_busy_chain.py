"""The busy-period chain of :meth:`Link.transmit_batch` against the
per-message loop it replaced: delivery times, ``busy_until`` and
``LinkStats`` must match bit for bit, on both sides of the array
cutoff.  Calls below the cutoff are also checked against per-message
:meth:`Link.transmit`."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.interconnect import link as link_module
from repro.interconnect.link import CHAIN_ARRAY_MIN, Link
from repro.interconnect.message import WireMessage

#: Bytes per ns.  Most give durations that are not exact binary
#: fractions, so sums round and the closed form drifts from the loop.
BANDWIDTHS = (1.0, 2.0, 15.75, 31.5, 0.3)

SHAPES = (
    "random",
    "repeated",
    "one_period",
    "burst_then_spaced",
    "separate",
    "ties",
    "near_guess",
)

#: Where the shapes not built from the loop's ends start, in ns.
BASE = 100.0

def loop_transmit_batch(link: Link, ready, wire_bytes, payload, overhead):
    """``Link.transmit_batch`` as one Python loop per message: the oracle."""
    durations = wire_bytes / link.bytes_per_ns
    ends = np.empty_like(durations)
    busy = link.busy_until
    busy_time = link.stats.busy_time_ns
    i = 0
    for r, d in zip(ready.tolist(), durations.tolist()):
        start = r if r > busy else busy
        busy = start + d
        ends[i] = busy
        busy_time += d
        i += 1
    link.busy_until = busy
    stats = link.stats
    stats.busy_time_ns = busy_time
    stats.messages += int(ready.size)
    stats.payload_bytes += int(payload.sum())
    stats.overhead_bytes += int(overhead.sum())
    return ends + link.propagation_ns


def make_stream(shape: str, n: int, seed: int, bw: float, busy_until: float):
    """(ready, wire_bytes) for ``n`` messages of one traffic shape, sent
    to a link busy until ``busy_until``."""
    rng = np.random.default_rng(seed)
    wire = rng.integers(1, 300, n)
    if shape == "burst_then_spaced":
        wire = np.full(n, wire[0])
    durations = wire / bw
    if shape == "random":
        ready = BASE + np.sort(rng.uniform(0.0, durations.sum(), n))
    elif shape == "repeated":
        times = rng.uniform(0.0, durations.sum(), max(1, n // 8))
        ready = BASE + np.sort(rng.choice(times, n))
    elif shape == "one_period":
        ready = np.full(n, BASE)
    elif shape == "burst_then_spaced":
        # A backlog that arrivals 1.5 durations apart drain slowly.
        ready = np.full(n, BASE)
        burst = max(1, n // 4)
        ready[burst:] += np.cumsum(np.full(n - burst, 1.5 * durations[0]))
    else:
        ready = chained_ready(shape, durations, busy_until, rng)
    return ready, wire


def chained_ready(shape: str, durations, busy_until: float, rng):
    """Ready times placed against the loop's own float ends.

    ``separate`` arrives after each end, ``ties`` on it, an ulp either
    side of it or well off it, and ``near_guess`` strictly between it
    and the end the closed form computes, where the two differ by more
    than an ulp: the closed form then misplaces a busy-period start.
    """
    ready = np.empty(durations.size)
    end = busy_until
    prefix, lead = 0.0, busy_until  # the closed form's running terms
    for i, d in enumerate(durations.tolist()):
        if shape == "separate":
            r = end + float(rng.uniform(0.01, 5.0))
        elif shape == "ties":
            r = (
                end,
                math.nextafter(end, math.inf),
                math.nextafter(end, -math.inf),
                end - d / 2,
                end + d / 2,
            )[int(rng.integers(5))]
        else:
            low, high = sorted((end, prefix + lead))
            r = math.nextafter(low, math.inf)
            if not r < high:
                r = end
        ready[i] = r
        lead = max(lead, r - prefix)
        prefix += d
        end = max(r, end) + d
    return ready


def assert_same_transmission(
    ready, wire, bw, busy_until, busy_time, *, splits=(), array_min=None
):
    """Send the stream (in ``splits`` batches) through both paths."""
    payload = wire * 3 // 4
    overhead = wire - payload
    links = []
    for _ in range(2):
        link = Link("x", bytes_per_ns=bw)
        link.busy_until = busy_until
        link.stats.busy_time_ns = busy_time
        links.append(link)
    batches = list(
        zip(*(np.split(a, splits) for a in (ready, wire, payload, overhead)))
    )
    want = [loop_transmit_batch(links[0], *batch) for batch in batches]
    threshold = CHAIN_ARRAY_MIN if array_min is None else array_min
    with mock.patch.object(link_module, "CHAIN_ARRAY_MIN", threshold):
        got = [links[1].transmit_batch(*batch) for batch in batches]
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    oracle, batched = links
    assert type(batched.busy_until) is float
    assert type(batched.stats.busy_time_ns) is float
    assert batched.busy_until.hex() == oracle.busy_until.hex()
    assert batched.stats.busy_time_ns.hex() == oracle.stats.busy_time_ns.hex()
    assert batched.stats == oracle.stats


class TestMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        n=st.integers(1, 3 * CHAIN_ARRAY_MIN),
        seed=st.integers(0, 2**32 - 1),
        bw=st.sampled_from(BANDWIDTHS),
        busy=st.sampled_from(("behind", "ahead")),
        busy_time=st.sampled_from((0.0, 0.1, 12345.678)),
        force_array=st.booleans(),
    )
    @example(
        shape="ties", n=CHAIN_ARRAY_MIN - 1, seed=1, bw=15.75, busy="behind",
        busy_time=0.1, force_array=False,
    )
    @example(
        shape="ties", n=CHAIN_ARRAY_MIN, seed=1, bw=15.75, busy="behind",
        busy_time=0.1, force_array=False,
    )
    @example(
        shape="burst_then_spaced", n=2 * CHAIN_ARRAY_MIN, seed=0, bw=15.75,
        busy="behind", busy_time=0.0, force_array=False,
    )
    @example(
        shape="near_guess", n=2 * CHAIN_ARRAY_MIN, seed=3, bw=15.75,
        busy="ahead", busy_time=0.0, force_array=False,
    )
    def test_matches_loop(
        self, shape, n, seed, bw, busy, busy_time, force_array
    ):
        span = float(n * 150 / bw)
        busy_until = {"behind": 0.0, "ahead": BASE + span / 3}[busy]
        ready, wire = make_stream(shape, n, seed, bw, busy_until)
        assert_same_transmission(
            ready, wire, bw, busy_until, busy_time,
            array_min=1 if force_array else None,
        )

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        n=st.integers(2, 3 * CHAIN_ARRAY_MIN),
        seed=st.integers(0, 2**32 - 1),
        bw=st.sampled_from(BANDWIDTHS),
        cut=st.floats(0.0, 1.0),
    )
    def test_state_carries_across_calls(self, shape, n, seed, bw, cut):
        ready, wire = make_stream(shape, n, seed, bw, 0.0)
        split = max(1, min(n - 1, int(cut * n)))
        assert_same_transmission(ready, wire, bw, 0.0, 0.0, splits=[split])


class TestShortCallsMatchTransmit:
    """Calls below :data:`CHAIN_ARRAY_MIN` against :meth:`Link.transmit`
    one message at a time, the event path's own arithmetic."""

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        n=st.integers(1, CHAIN_ARRAY_MIN - 1),
        seed=st.integers(0, 2**32 - 1),
        bw=st.sampled_from(BANDWIDTHS),
        busy=st.sampled_from(("behind", "ahead")),
        busy_time=st.sampled_from((0.0, 0.1, 12345.678)),
        cut=st.floats(0.0, 1.0),
    )
    def test_matches_transmit(self, shape, n, seed, bw, busy, busy_time, cut):
        busy_until = {"behind": 0.0, "ahead": BASE + float(n * 50 / bw)}[busy]
        ready, wire = make_stream(shape, n, seed, bw, busy_until)
        payload = wire * 3 // 4
        overhead = wire - payload
        oracle, batched = Link("x", bytes_per_ns=bw), Link("x", bytes_per_ns=bw)
        for link in (oracle, batched):
            link.busy_until = busy_until
            link.stats.busy_time_ns = busy_time
        want = [
            oracle.transmit(
                WireMessage(src=0, dst=1, payload_bytes=p, overhead_bytes=o), r
            )[1]
            for r, p, o in zip(ready.tolist(), payload.tolist(), overhead.tolist())
        ]
        split = int(cut * n)
        got = [
            batched.transmit_batch(*(a[part] for a in (ready, wire, payload, overhead)))
            for part in (slice(0, split), slice(split, n))
        ]
        assert np.concatenate(got).view(np.int64).tolist() == (
            np.array(want).view(np.int64).tolist()
        )
        assert type(batched.busy_until) is float
        assert type(batched.stats.busy_time_ns) is float
        assert batched.busy_until.hex() == oracle.busy_until.hex()
        assert batched.stats.busy_time_ns.hex() == oracle.stats.busy_time_ns.hex()
        assert batched.stats == oracle.stats


def refinement_stream():
    """A stream whose closed-form guess misplaces one period start.

    From ``busy_until`` 77.7 ns, four 0.1 ns messages end at
    78.09999999999998 by the loop's additions, while the closed form
    puts that end two ulps later.  The rest arrive at 78.1, between
    the two: the loop starts a new busy period there, the guess does
    not.
    """
    n = CHAIN_ARRAY_MIN + 44
    ready = np.zeros(n)
    ready[4:] = 78.1
    return ready, np.ones(n, dtype=np.int64), 10.0, 77.7


class TestRefinement:
    def test_pinned_case_takes_refinement_path(self):
        ready, wire, bw, busy = refinement_stream()
        verified = []
        real = link_module._verified

        def spy(*args):
            verified.append(real(*args))
            return verified[-1]

        with mock.patch.object(link_module, "_verified", spy):
            assert_same_transmission(ready, wire, bw, busy, 0.0)
        assert verified == [4, ready.size - 4]

    def test_falls_back_to_loop_after_round_cap(self):
        ready, wire, bw, busy = refinement_stream()
        looped = []
        real = link_module._chain_loop

        def spy(r, *args):
            looped.append(len(r))
            return real(r, *args)

        with mock.patch.object(link_module, "CHAIN_MAX_ROUNDS", 1), mock.patch.object(
            link_module, "_chain_loop", spy
        ):
            assert_same_transmission(ready, wire, bw, busy, 0.0)
        assert looped == [ready.size - 4]
