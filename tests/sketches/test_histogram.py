"""Equi-height histogram selectivity tests.

Every histogram here is built the way the planner builds one: from the
quantile borders of a :class:`GKQuantileSketch` (default epsilon).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StatisticsError
from repro.sketches.gk import GKQuantileSketch
from repro.sketches.histogram import EquiHeightHistogram


def sketched_histogram(values, buckets):
    sketch = GKQuantileSketch()
    sketch.extend(values)
    return EquiHeightHistogram.from_sketch(sketch, buckets)


def uniform_histogram(n=10_000, buckets=32, seed=1):
    rng = random.Random(seed)
    return sketched_histogram([rng.uniform(0, 100) for _ in range(n)], buckets)


class TestConstruction:
    def test_empty_sketch_rejected(self):
        with pytest.raises(StatisticsError):
            EquiHeightHistogram.from_sketch(GKQuantileSketch())

    def test_from_sketch_covers_range(self):
        sketch = GKQuantileSketch(0.01)
        sketch.extend(range(1000))
        histogram = EquiHeightHistogram.from_sketch(sketch, 16)
        assert histogram.minimum == 0
        assert histogram.buckets[-1].upper == 999


class TestSelectivity:
    def test_range_full_domain(self):
        assert uniform_histogram().selectivity_range(None, None) == pytest.approx(1.0)

    def test_range_half(self):
        histogram = uniform_histogram()
        assert histogram.selectivity_range(None, 50.0) == pytest.approx(0.5, abs=0.05)

    def test_range_below_domain_zero(self):
        assert uniform_histogram().selectivity_range(None, -5.0) == 0.0

    def test_range_interval(self):
        histogram = uniform_histogram()
        assert histogram.selectivity_range(25.0, 75.0) == pytest.approx(0.5, abs=0.06)

    def test_equality_small(self):
        histogram = uniform_histogram()
        assert 0.0 <= histogram.selectivity_equals(50.0) < 0.05

    def test_equality_out_of_domain(self):
        assert uniform_histogram().selectivity_equals(1000.0) == 0.0

    def test_comparison_operators(self):
        histogram = uniform_histogram()
        le = histogram.selectivity_comparison("<=", 30.0)
        gt = histogram.selectivity_comparison(">", 30.0)
        assert le == pytest.approx(0.3, abs=0.05)
        assert le + gt == pytest.approx(1.0, abs=1e-6)

    def test_eq_plus_ne_is_one(self):
        histogram = uniform_histogram()
        eq = histogram.selectivity_comparison("=", 42.0)
        ne = histogram.selectivity_comparison("!=", 42.0)
        assert eq + ne == pytest.approx(1.0)

    def test_lt_plus_ge_is_one(self):
        histogram = uniform_histogram()
        lt = histogram.selectivity_comparison("<", 60.0)
        ge = histogram.selectivity_comparison(">=", 60.0)
        assert lt + ge == pytest.approx(1.0, abs=1e-6)

    def test_unknown_operator_rejected(self):
        with pytest.raises(StatisticsError):
            uniform_histogram().selectivity_comparison("~", 1.0)

    def test_integer_equality_on_small_domain(self):
        # d_moy-like column: 12 distinct ints, equality ~1/12.
        values = [i % 12 + 1 for i in range(12_000)]
        histogram = sketched_histogram(values, 12)
        assert histogram.selectivity_equals(6) == pytest.approx(1 / 12, abs=0.1)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200),
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_fraction_leq_monotone_property(self, values, a, b):
        histogram = sketched_histogram(values, 8)
        lo, hi = min(a, b), max(a, b)
        assert histogram._fraction_leq(lo) <= histogram._fraction_leq(hi) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=5, max_size=300))
    def test_selectivities_clamped_property(self, values):
        histogram = sketched_histogram(values, 8)
        for op in ("=", "!=", "<", "<=", ">", ">="):
            sel = histogram.selectivity_comparison(op, 500.0)
            assert 0.0 <= sel <= 1.0
