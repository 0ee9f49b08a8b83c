"""Tests for weight profiles."""

import math

import pytest

from repro.core.weights import (
    MINIFE_TRADEOFF,
    MINIMD_TRADEOFF,
    PAPER_COMPUTE_WEIGHTS,
    ComputeWeights,
    NetworkWeights,
    TradeOff,
)


class TestComputeWeights:
    def test_paper_defaults(self):
        cw = ComputeWeights()
        assert cw.get("cpu_load") == 0.30
        assert cw.get("cpu_util") == 0.20
        assert cw.get("flow_rate") == 0.20
        assert cw.get("available_memory") == 0.10
        assert cw.get("core_count") == 0.10
        assert cw.get("cpu_frequency") == 0.05
        assert cw.get("total_memory") == 0.05

    def test_paper_weights_sum_to_one(self):
        assert sum(PAPER_COMPUTE_WEIGHTS.values()) == pytest.approx(1.0)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(KeyError):
            ComputeWeights({"bogus": 1.0})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ComputeWeights({"cpu_load": -0.1})

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ComputeWeights({"cpu_load": 0.0})

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_non_finite_rejected(self, w):
        with pytest.raises(ValueError, match="finite"):
            ComputeWeights({"cpu_load": w})

    def test_unset_attribute_is_zero(self):
        cw = ComputeWeights({"cpu_load": 1.0})
        assert cw.get("cpu_util") == 0.0


class TestNetworkWeights:
    def test_paper_defaults(self):
        nw = NetworkWeights()
        assert nw.w_lt == 0.25 and nw.w_bw == 0.75

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="equal 1"):
            NetworkWeights(w_lt=0.5, w_bw=0.6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NetworkWeights(w_lt=-0.1, w_bw=1.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            NetworkWeights(math.nan, math.nan)


class TestTradeOff:
    def test_paper_values(self):
        assert (MINIMD_TRADEOFF.alpha, MINIMD_TRADEOFF.beta) == (0.3, 0.7)
        assert (MINIFE_TRADEOFF.alpha, MINIFE_TRADEOFF.beta) == (0.4, 0.6)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="equal 1"):
            TradeOff(alpha=0.5, beta=0.6)

    def test_from_alpha(self):
        t = TradeOff.from_alpha(0.25)
        assert t.beta == pytest.approx(0.75)

    def test_extremes_allowed(self):
        TradeOff(alpha=0.0, beta=1.0)
        TradeOff(alpha=1.0, beta=0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TradeOff(alpha=-0.2, beta=1.2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TradeOff.from_alpha(math.nan)
