"""Examples must at least import cleanly and expose a main()."""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    assert callable(getattr(_load(path), "main", None))


def test_packet_walkthrough_runs(capsys):
    """The hardware walkthrough prints the queue, packet and wire state."""
    _load(EXAMPLES_DIR / "packet_walkthrough.py").main()
    out = capsys.readouterr().out
    assert "5 stores held in 3 entries" in out
    assert "stores absorbed: 5" in out
    assert "FinePack: 36 B payload + 48 B overhead = 84 B" in out
    assert "write 16 B @ +0x00000: b'DDDDDDDDBBBBBBBB'" in out


def test_custom_workload_example_runs_small():
    """The tutorial workload works end to end at a reduced size."""
    module = _load(EXAMPLES_DIR / "custom_workload.py")

    from repro.run import RunSpec, labeled_sweep

    w = module.HistogramWorkload(n_bins=8_000, total_samples=8_000)
    base = RunSpec.for_workload(w, iterations=2)
    sweep = labeled_sweep({p: base.with_options(paradigm=p) for p in ("p2p", "finepack")})
    runs = {p.label: p.metrics for p in sweep.result.points}
    assert runs["finepack"].wire_bytes < runs["p2p"].wire_bytes
