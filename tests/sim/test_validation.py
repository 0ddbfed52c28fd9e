"""Validation harness tests."""

import pytest

from repro import registry
from repro.sim.paradigms import FinePackParadigm, GPSParadigm
from repro.sim.validation import ValidationError, validate
from repro.workloads import DiffusionWorkload, PagerankWorkload


@pytest.fixture(scope="module")
def trace():
    return PagerankWorkload(n=6_000).generate_trace(4, 2)


class TestValidate:
    @pytest.mark.parametrize("paradigm", ["p2p", "finepack", "wc", "dma"])
    def test_stock_paradigms_pass(self, trace, paradigm):
        report = validate(trace, registry.paradigms.resolve(paradigm)())
        assert report.passed, report.failures()

    def test_gps_passes_with_subscription_semantics(self, trace):
        report = validate(trace, GPSParadigm())
        assert report.passed, report.failures()

    def test_multiwindow_finepack_passes(self):
        trace = DiffusionWorkload(n=24).generate_trace(2, 2)
        report = validate(trace, FinePackParadigm(windows=2))
        assert report.passed, report.failures()

    def test_summary_readable(self, trace):
        report = validate(trace, FinePackParadigm())
        text = report.summary()
        assert "[PASS]" in text
        assert "ledger-partition" in text

    def test_broken_engine_detected(self, trace):
        """An engine that drops every second store must fail coverage."""

        class LossyParadigm(FinePackParadigm):
            name = "lossy"

            def _make_engine(self, gpu, n_gpus, protocol):
                engine = super()._make_engine(gpu, n_gpus, protocol)
                original = engine.on_store
                state = {"n": 0}

                def lossy(addr, size, dst, time, data=None):
                    state["n"] += 1
                    if state["n"] % 2 == 0:
                        return []  # silently dropped!
                    return original(addr, size, dst, time, data)

                engine.on_store = lossy
                return engine

        report = validate(trace, LossyParadigm())
        assert not report.passed
        with pytest.raises(ValidationError):
            validate(trace, LossyParadigm(), raise_on_failure=True)

    def test_infinite_is_trivially_consistent(self, trace):
        report = validate(trace, registry.paradigms.resolve("infinite")())
        assert report.passed, report.failures()
