"""Constant-memory regression test for streamed trace generation.

The two generation modes each run in a fresh subprocess, through
``tools/bench_perf.py``'s ``bench_trace_stream`` (the CI memory gate's
own probe), and each child reports its peak resident set (``VmHWM``)
above its own post-import baseline.  ``VmHWM`` belongs to the child
alone; ``ru_maxrss`` would not do, because a child inherits the
forking process's high-water mark, so once the test process outgrew
the streamed peak the streamed delta would read 0 and the gate could
not fail.  Comparing deltas above the baseline keeps import-time
residency, which swings with page-cache state, out of the quantity
under test.

The workload is CT with ``cluster=1`` (no coalescible locality): every
iteration draws fresh RNG corrections, so whole-trace generation must
hold every iteration's store columns at once while the streamed path
holds one ``chunk_ops`` block and spills -- the gap is the measured
guarantee (streamed delta at most half the whole-trace delta, the
>=2x peak-memory reduction gate).
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_perf.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_perf_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_streamed_generation_halves_peak_rss():
    block = _load_tool().bench_trace_stream()
    # Both modes produced the same trace.
    assert block["same_ops"] and block["ops"] > 10_000_000, block
    # The whole-trace columns are ~300 MB of int64, so a meaningful
    # measurement must show a substantial generation footprint (the
    # floor is lax because a warm import baseline absorbs part of it).
    assert block["whole_delta_kb"] > 64 * 1024, block
    # The memory gate: spill-while-generating must keep the peak at or
    # below half of materialize-then-write.  (Measured headroom is
    # ~3x; 2x is the contract.)
    assert block["streamed_delta_kb"] <= 0.5 * block["whole_delta_kb"], (
        f"streamed generation delta {block['streamed_delta_kb']} kB vs "
        f"whole-trace delta {block['whole_delta_kb']} kB"
    )
