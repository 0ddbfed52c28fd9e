#!/usr/bin/env python3
"""Compare two benchmark result files, run by run.

    python3 bench/compare.py BASE.json CHANGE.json

Each file is what ``bench/run.py --out`` accumulates, one entry per run.
Runs of the same workload and trace mode are paired in file order, so
record both sides with the same seeds in the same order, alternating
which commit runs first.  For every (workload, metric) this prints both
sides' median and quartiles over runs, the metric's bound, the pairs won
and a verdict:

* simulated (exact) metrics are compared bit for bit: ``unchanged`` if
  every pair is equal, ``improved`` if every unequal pair moved the
  better way, otherwise ``worse``;
* ``unresolved`` when either side's spread (IQR / median) exceeds the
  bound, unless every change run beats every base run (``improved``);
* ``improved`` when the change wins at least 9 of 10 pairs and the
  medians differ by more than the base's IQR;
* ``worse`` when the change's median is worse than the base's by more
  than the bound; per-layer metrics have no bound and use the mirror of
  the ``improved`` rule;
* ``unchanged`` otherwise.

A change with more failed cells than its base is ``worse``.  The exit
status is 1 if any end-to-end metric (or the failure count) is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _spread(values: list[float]) -> float:
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(
    base: list[float],
    change: list[float],
    better: str,
    bound: float | None,
    exact: bool = False,
) -> str:
    """The verdict on one metric from paired per-run values."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    q1, mb, q3 = _quartiles(base)
    mc = statistics.median(change)
    gain = sign * (mb - mc)
    if exact:
        moved = [sign * (b - c) for b, c in pairs if b != c]
        if not moved and len(base) == len(change):
            return "unchanged"
        return "improved" if moved and all(d > 0 for d in moved) else "worse"
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    losses = sum(sign * (b - c) < 0 for b, c in pairs)
    if bound is not None and max(_spread(base), _spread(change)) > bound:
        if all(sign * (b - c) > 0 for b in base for c in change):
            return "improved"
        return "unresolved"
    if wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    if bound is None:
        return "worse" if losses >= 0.9 * len(pairs) and -gain > q3 - q1 else "unchanged"
    return "worse" if -gain > bound * abs(mb) else "unchanged"


def load_runs(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Runs grouped by (workload, trace mode), in file order."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for run in json.loads(path.read_text())["runs"]:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    return groups


def _fmt(values: list[float]) -> str:
    q1, med, q3 = _quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base_path: Path, change_path: Path) -> int:
    base, change = load_runs(base_path), load_runs(change_path)
    regressed = False
    print(
        f"{'workload':<16} {'metric':<32} {'unit':<10} {'base median [q1, q3]':<38} "
        f"{'change median [q1, q3]':<38} {'bound':>6} {'won':>6}  verdict"
    )
    for key in sorted(base.keys() & change.keys()):
        workload, _ = key
        b_runs, c_runs = base[key], change[key]
        n = min(len(b_runs), len(c_runs))
        b_runs, c_runs = b_runs[:n], c_runs[:n]
        b_failed = sum(r["failed"] for r in b_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        if c_failed > b_failed:
            regressed = True
            print(f"{workload:<16} {'failed cells':<32} {b_failed} -> {c_failed}  worse")
        for name, spec in b_runs[0]["metrics"].items():
            if name not in c_runs[0]["metrics"]:
                continue
            b = [r["metrics"][name]["value"] for r in b_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            won = sum(sign * (x - y) > 0 for x, y in zip(b, c))
            v = verdict(b, c, spec["better"], spec["bound"], spec["exact"])
            if v == "worse" and spec["bound"] is not None:
                regressed = True
            bound = "exact" if spec["exact"] else (
                "-" if spec["bound"] is None else f"{spec['bound']:.0%}"
            )
            print(
                f"{workload:<16} {name:<32} {spec['unit']:<10} {_fmt(b):<38} "
                f"{_fmt(c):<38} {bound:>6} {won:>3}/{n:<2}  {v}"
            )
    only = sorted(base.keys() ^ change.keys())
    if only:
        print(f"not compared (present on one side only): {only}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    return compare(args.base, args.change)


if __name__ == "__main__":
    sys.exit(main())
