"""Property-based invariants of the simulated-time accounting."""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.metrics import JobMetrics
from repro.obs.trace import TIME_COMPONENTS as TIME_FIELDS
COUNTER_FIELDS = tuple(
    f.name
    for f in fields(JobMetrics)
    if not f.name.startswith("_") and f.name not in TIME_FIELDS
)

seconds = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
counts = st.integers(min_value=0, max_value=10**9)

metrics_strategy = st.builds(
    JobMetrics,
    **{name: seconds for name in TIME_FIELDS},
    **{name: counts for name in COUNTER_FIELDS},
)


class TestJobMetricsProperties:
    @given(metrics_strategy, metrics_strategy)
    def test_merge_keeps_components_non_negative(self, a, b):
        a.merge(b)
        for name in TIME_FIELDS:
            assert getattr(a, name) >= 0.0
        for name in COUNTER_FIELDS:
            assert getattr(a, name) >= 0

    @given(metrics_strategy)
    def test_total_is_sum_of_breakdown(self, m):
        assert m.total_seconds == pytest.approx(sum(m.breakdown().values()))
        assert set(m.breakdown()) == set(TIME_FIELDS)

    @given(metrics_strategy)
    def test_copy_round_trips(self, m):
        clone = m.copy()
        assert clone == m
        assert clone is not m
        # mutating the copy must not alias the original
        clone.scan += 1.0
        clone.jobs += 1
        assert clone != m

    @given(metrics_strategy, metrics_strategy)
    def test_merge_of_copy_is_fieldwise_sum(self, a, b):
        merged = a.copy().merge(b)
        for f in fields(JobMetrics):
            if f.name.startswith("_"):
                continue
            expected = getattr(a, f.name) + getattr(b, f.name)
            assert getattr(merged, f.name) == pytest.approx(expected)
        # the source operands are untouched
        assert a == a.copy()

    @given(metrics_strategy)
    def test_merge_with_zero_is_identity(self, m):
        before = m.copy()
        m.merge(JobMetrics())
        assert m == before

    @given(metrics_strategy, metrics_strategy)
    def test_merge_returns_self(self, a, b):
        assert a.merge(b) is a
