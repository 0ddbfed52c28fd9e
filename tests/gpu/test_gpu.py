"""HBM model tests."""

import pytest

from repro.gpu.hbm import HBMModel


class TestHBM:
    def test_access_time(self):
        hbm = HBMModel(bandwidth_bytes_per_ns=900.0, latency_ns=350.0)
        assert hbm.access_time_ns(0) == 0.0
        assert hbm.access_time_ns(9000) == pytest.approx(360.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HBMModel().access_time_ns(-1)

    def test_drain_rate_exceeds_pcie(self):
        """Sec. IV-C: local memory can always absorb link-rate ingress."""
        assert HBMModel().drain_rate() > 128.0

