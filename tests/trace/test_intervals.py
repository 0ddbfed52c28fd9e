"""IntervalSet algebra tests, verified against a brute-force set model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.intervals import IntervalSet


def iset(*ranges):
    starts = [r[0] for r in ranges]
    lens = [r[1] for r in ranges]
    return IntervalSet.from_ranges(starts, lens)


def as_set(s: IntervalSet) -> set[int]:
    out: set[int] = set()
    for a, b in zip(s.starts.tolist(), s.ends.tolist()):
        out.update(range(a, b))
    return out


class TestNormalization:
    def test_empty(self):
        s = IntervalSet.empty()
        assert not s
        assert s.total_bytes == 0
        assert len(s) == 0

    def test_zero_length_dropped(self):
        assert not iset((5, 0))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            iset((0, -1))

    def test_overlaps_merge(self):
        s = iset((0, 10), (5, 10))
        assert len(s) == 1
        assert s.total_bytes == 15

    def test_adjacent_merge(self):
        s = iset((0, 4), (4, 4))
        assert len(s) == 1
        assert s.total_bytes == 8

    def test_disjoint_kept(self):
        s = iset((0, 4), (8, 4))
        assert len(s) == 2

    def test_unsorted_input(self):
        s = iset((100, 4), (0, 4), (50, 4))
        assert s.starts.tolist() == [0, 50, 100]


class TestOperations:
    def test_union(self):
        u = iset((0, 8)).union(iset((4, 8)))
        assert as_set(u) == set(range(12))

    def test_intersect(self):
        i = iset((0, 10), (20, 10)).intersect(iset((5, 20)))
        assert as_set(i) == set(range(5, 10)) | set(range(20, 25))

    def test_intersect_empty(self):
        assert not iset((0, 4)).intersect(iset((8, 4)))
        assert not IntervalSet.empty().intersect(iset((0, 4)))

    def test_difference(self):
        d = iset((0, 20)).difference(iset((5, 5)))
        assert as_set(d) == set(range(5)) | set(range(10, 20))

    def test_difference_disjoint(self):
        d = iset((0, 4)).difference(iset((100, 4)))
        assert as_set(d) == set(range(4))

    def test_contains(self):
        s = iset((10, 5))
        assert s.contains(10) and s.contains(14)
        assert not s.contains(9) and not s.contains(15)

    def test_shift(self):
        s = iset((0, 4)).shift(100)
        assert as_set(s) == set(range(100, 104))


@st.composite
def interval_sets(draw):
    n = draw(st.integers(0, 12))
    ranges = [
        (draw(st.integers(0, 200)), draw(st.integers(1, 30))) for _ in range(n)
    ]
    return iset(*ranges) if ranges else IntervalSet.empty()


class TestHypothesisVsSetModel:
    @given(interval_sets(), interval_sets())
    @settings(max_examples=150, deadline=None)
    def test_union(self, a, b):
        assert as_set(a.union(b)) == as_set(a) | as_set(b)

    @given(interval_sets(), interval_sets())
    @settings(max_examples=150, deadline=None)
    def test_intersect(self, a, b):
        assert as_set(a.intersect(b)) == as_set(a) & as_set(b)

    @given(interval_sets(), interval_sets())
    @settings(max_examples=150, deadline=None)
    def test_difference(self, a, b):
        assert as_set(a.difference(b)) == as_set(a) - as_set(b)

    @given(interval_sets())
    @settings(max_examples=80, deadline=None)
    def test_total_bytes_matches_cardinality(self, a):
        assert a.total_bytes == len(as_set(a))

    @given(interval_sets())
    @settings(max_examples=80, deadline=None)
    def test_normalized_invariants(self, a):
        starts, ends = a.starts, a.ends
        assert (ends > starts).all()
        # Sorted, disjoint and non-adjacent.
        assert (starts[1:] > ends[:-1]).all()


def _from_ranges_by_argsort(starts, lengths):
    """The normalization ``from_ranges`` used before it sorted values:
    a stable argsort of the starts, then one running maximum of the
    reordered ends."""
    s = np.asarray(starts, dtype=np.int64)
    l = np.asarray(lengths, dtype=np.int64)
    s, l = s[l > 0], l[l > 0]
    if s.size == 0:
        return [], []
    order = np.argsort(s, kind="stable")
    s, e = s[order], (s + l)[order]
    running = np.maximum.accumulate(e)
    new_run = np.empty(s.size + 1, dtype=bool)
    new_run[0] = new_run[-1] = True
    np.greater(s[1:], running[:-1], out=new_run[1:-1])
    return s[new_run[:-1]].tolist(), running[new_run[1:]].tolist()


def test_sorting_values_matches_the_argsort_normalization():
    # Sorted and unsorted starts, ties, nesting, adjacency, zero
    # lengths and wide spans, 20,000 cases of up to 40 ranges.
    rng = np.random.default_rng(2027)
    for _ in range(20_000):
        n = int(rng.integers(0, 41))
        span = int(rng.choice([8, 64, 1 << 12, 1 << 40]))
        starts = rng.integers(0, span, n)
        lengths = rng.integers(0, int(rng.choice([2, 16, 512])), n)
        if rng.random() < 0.3:
            starts.sort()
        got = IntervalSet.from_ranges(starts, lengths)
        assert (got.starts.tolist(), got.ends.tolist()) == _from_ranges_by_argsort(
            starts, lengths
        )


def test_digest_hashes_the_normalized_columns():
    a = iset((8, 8), (0, 8))
    b = iset((0, 16))
    assert a.digest == b.digest
    assert a.digest != iset((0, 15)).digest
    assert IntervalSet.empty().digest == IntervalSet.empty().digest
