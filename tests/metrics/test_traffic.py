"""Tests for the traffic-analysis metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.traffic import size_advantage


class TestSizeAdvantage:
    def test_identical_populations_zero(self):
        advantage, _ = size_advantage([100, 200, 300], [100, 200, 300])
        assert advantage == 0.0

    def test_disjoint_populations_one(self):
        advantage, threshold = size_advantage([10, 20], [100, 200])
        assert advantage == 1.0
        assert 20 <= threshold < 100

    def test_constant_population_zero(self):
        advantage, _ = size_advantage([512] * 50, [512] * 50)
        assert advantage == 0.0

    def test_partial_overlap(self):
        advantage, _ = size_advantage([1, 2, 3, 4], [3, 4, 5, 6])
        assert 0.0 < advantage < 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            size_advantage([], [1])
        with pytest.raises(ValueError):
            size_advantage([1], [])

    @given(st.lists(st.integers(min_value=1, max_value=1000), min_size=1,
                    max_size=40),
           st.lists(st.integers(min_value=1, max_value=1000), min_size=1,
                    max_size=40))
    def test_property_bounds_and_symmetry(self, a, b):
        advantage_ab, _ = size_advantage(a, b)
        advantage_ba, _ = size_advantage(b, a)
        assert 0.0 <= advantage_ab <= 1.0
        assert advantage_ab == pytest.approx(advantage_ba)
