import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbound.selection import ceil_div, ceil_index, empirical_quantile, kth_smallest


class TestCeilIndex:
    def test_plain_values(self):
        assert ceil_index(0.1) == 1
        assert ceil_index(99.2) == 100
        assert ceil_index(100.0) == 100

    def test_float_product_hazards(self):
        # products that land a few ulps above the intended integer
        assert ceil_index(1000 * 0.1) == 100
        assert ceil_index(1000 * 0.146) == 146
        assert ceil_index(10 * 0.1) == 1
        assert ceil_index(2000 * 0.9) == 1800

    @given(st.integers(1, 10_000), st.integers(1, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_ceiling(self, num, den):
        # den <= 1e4 keeps every non-integer rational far beyond the 1e-9 slack
        import math
        from fractions import Fraction

        assert ceil_index(num / den) == math.ceil(Fraction(num, den))


class TestCeilDiv:
    @given(st.integers(0, 10 ** 9), st.integers(1, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_exact(self, a, b):
        assert ceil_div(a, b) == -(-a // b) == (a + b - 1) // b


class TestKthSmallest:
    def test_agrees_with_sort(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=101)
        ordered = np.sort(values)
        for k in (1, 2, 50, 101):
            assert kth_smallest(values, k) == ordered[k - 1]

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            kth_smallest(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            kth_smallest(np.array([1.0]), 2)

    def test_axis_selects_per_column(self):
        values = np.random.default_rng(3).normal(size=(50, 7))
        for k in (1, 5, 50):
            got = kth_smallest(values, k, axis=0)
            assert got.tolist() == [kth_smallest(values[:, j], k) for j in range(7)]
        with pytest.raises(ValueError):
            kth_smallest(values, 51, axis=0)
        with pytest.raises(ValueError):
            kth_smallest(values, 0, axis=0)


class TestEmpiricalQuantile:
    def test_tenths_example(self):
        values = np.arange(0.1, 1.01, 0.1)
        assert empirical_quantile(values, 0.9) == pytest.approx(0.9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)

    def test_q_bounds(self):
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 0.0)
