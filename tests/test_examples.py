"""Examples must at least import cleanly and expose a main()."""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))


def test_custom_workload_example_runs_small():
    """The tutorial workload works end to end at a reduced size."""
    path = Path(__file__).parent.parent / "examples" / "custom_workload.py"
    spec = importlib.util.spec_from_file_location("example_custom", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    from repro.run import RunSpec, labeled_sweep

    w = module.HistogramWorkload(n_bins=8_000, total_samples=8_000)
    base = RunSpec.for_workload(w, iterations=2)
    sweep = labeled_sweep({p: base.with_options(paradigm=p) for p in ("p2p", "finepack")})
    runs = {p.label: p.metrics for p in sweep.result.points}
    assert runs["finepack"].wire_bytes < runs["p2p"].wire_bytes
