"""The id helpers against numpy's own results, and the guard that keeps
bare ``np.unique`` calls out of the package."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.trace.ids import stable_argsort, unique_ints

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _ids(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestUniqueInts:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(INT64, max_size=200), presort=st.booleans())
    @example(values=[], presort=False)
    @example(values=[5], presort=False)
    @example(values=[3, 3, 3], presort=False)
    @example(values=[-(2**63), 2**63 - 1, -(2**63)], presort=False)
    def test_matches_np_unique(self, values, presort):
        ids = _ids(values)
        if presort:
            ids.sort()
        _assert_same(unique_ints(ids), np.unique(ids))

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(0, 500), max_size=200),
        slack=st.integers(1, 600),
        presort=st.booleans(),
    )
    @example(values=[], slack=1, presort=False)
    @example(values=[0], slack=1, presort=False)
    @example(values=[7, 7, 0, 7], slack=1, presort=False)
    def test_bound_matches_np_unique(self, values, slack, presort):
        ids = _ids(values)
        if presort:
            ids.sort()
        bound = (int(ids.max()) if ids.size else 0) + slack
        _assert_same(unique_ints(ids, bound), np.unique(ids))

    def test_does_not_modify_input(self):
        ids = _ids([3, 1, 3, 2])
        unique_ints(ids)
        assert ids.tolist() == [3, 1, 3, 2]


class TestStableArgsort:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(0, 2**20), max_size=300),
        bound_bits=st.sampled_from([8, 16, 21]),
    )
    def test_matches_stable_argsort(self, values, bound_bits):
        bound = 1 << bound_bits
        ids = _ids(values) % bound
        _assert_same(
            stable_argsort(ids, bound), np.argsort(ids, kind="stable")
        )


# -- no bare np.unique in the package ---------------------------------

#: Keywords that send np.unique down numpy's sort path.
_SORT_PATH_KEYWORDS = frozenset({"return_index", "return_inverse", "return_counts"})


def bare_unique_calls(source: str) -> list[int]:
    """Line numbers of ``np.unique``/``numpy.unique`` calls that take
    the hash path: none of the sort-path keywords set to anything but
    a literal ``False``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        sorted_path = any(
            kw.arg in _SORT_PATH_KEYWORDS
            and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
            for kw in node.keywords
        )
        if not sorted_path:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("np.unique(a)", [1]),
        ("numpy.unique(a, axis=0)", [1]),
        ("np.unique(a, return_counts=False)", [1]),
        ("np.unique(a, return_counts=True)", []),
        ("np.unique(a, return_index=True, return_counts=True)", []),
        ("x.unique(a)\nunique_ints(a)", []),
    ],
)
def test_guard_recognizes_bare_calls(source, flagged):
    assert bare_unique_calls(source) == flagged


def test_package_has_no_bare_np_unique():
    root = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(root.parent)}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in bare_unique_calls(path.read_text())
    ]
    assert not found, (
        "bare np.unique takes numpy's hash path (numpy >= 2.3); use "
        f"repro.trace.ids.unique_ints instead: {found}"
    )
