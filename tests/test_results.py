import math

import pytest

from relbound.results import LclResult

KEYS = ["method", "lcl", "raw_value", "clamped", "fell_outside", "r_hat",
        "per_component_estimates", "seed", "t", "alpha", "B", "C", "diagnostics"]


class TestLclResult:
    def test_dict_keys_in_order_without_ranks(self):
        result = LclResult(method="bp", raw_value=0.25, r_hat=0.5, t=1, alpha=0.1, B=20,
                           component_estimates=[{"family": "weibull"}])
        out = result.to_dict()
        assert list(out) == KEYS
        assert list(out["diagnostics"]) == ["boundary_hits", "ties"]
        assert out["per_component_estimates"] == [{"family": "weibull"}]
        assert out["per_component_estimates"][0] is not result.component_estimates[0]
        assert (out["C"], out["seed"], type(out["t"])) == (None, None, float)

    def test_dict_keys_in_order_with_ranks(self):
        result = LclResult(method="dbpt", raw_value=0.25, r_hat=0.5, t=1.0, alpha=0.1,
                           B=20, C=10, seed=3, boundary_hits=2, ties=1, u_k=4, k=2, k_prime=8)
        out = result.to_dict()
        assert list(out) == KEYS
        assert out["diagnostics"] == {"boundary_hits": 2, "ties": 1, "u_k": 4, "k": 2,
                                      "k_prime": 8}

    @pytest.mark.parametrize("raw, percentile, lcl, clamped, outside", [
        (0.3, True, 0.3, 0.3, False), (1.2, False, 1.2, 1.0, True),
        (-0.1, False, -0.1, 0.0, True), (-0.1, True, 0.0, 0.0, True),
    ])
    def test_raw_value_fixes_lcl_clamped_and_flag(self, raw, percentile, lcl, clamped, outside):
        result = LclResult(method="m", raw_value=raw, r_hat=0.5, t=1.0, alpha=0.1,
                           percentile=percentile)
        assert (result.lcl, result.clamped, result.fell_outside) == (lcl, clamped, outside)
        assert math.isnan(LclResult(method="m", raw_value=math.nan, r_hat=0.5, t=1.0,
                                    alpha=0.1).raw_value)
