"""``tools/bench_perf.py`` refreshes ``BENCH_core.json`` in place."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_perf.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_perf_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_refresh_keeps_blocks_it_does_not_write(tmp_path, monkeypatch):
    tool = _load_tool()
    block = {
        "fast_s": 1.0,
        "scalar_s": 4.0,
        "speedup": 4.0,
        "byte_identical": True,
        "mismatches": [],
        "stage_totals_ms": {"fast": {}, "scalar": {}},
        "runs": {"fast": [], "scalar": []},
    }
    monkeypatch.setattr(tool, "bench", lambda name, specs: dict(block))
    out = tmp_path / "BENCH_core.json"
    analytical = {"passed": True, "errors": {"overall": {}}}
    out.write_text(json.dumps({"speedup": 2.0, "analytical": analytical}))

    status = tool.main(
        [
            "--out",
            str(out),
            "--skip-collectives",
            "--skip-trace-stream",
            "--min-speedup",
            "1.0",
        ]
    )

    doc = json.loads(out.read_text())
    assert status == 0
    assert doc["analytical"] == analytical
    assert doc["speedup"] == 4.0
    assert "mismatches" not in doc
