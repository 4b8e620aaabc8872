"""JobMetrics accounting tests."""

import pytest

from repro.engine.metrics import ExecutionResult, JobMetrics


class TestJobMetrics:
    def test_total_sums_time_fields(self):
        metrics = JobMetrics(startup=1.0, scan=2.0, network=3.0, spill=0.5)
        assert metrics.total_seconds == pytest.approx(6.5)

    def test_total_is_a_left_to_right_fold(self):
        # A compensated sum (Python 3.12's built-in) gives 1.0 here; the
        # recorded clocks are left-to-right folds, as 3.11's sum was.
        metrics = JobMetrics(startup=1e16, scan=1.0, compute=-1e16)
        assert metrics.total_seconds == 0.0

    def test_total_reads_every_time_field(self):
        powers = {name: 2.0**i for i, name in enumerate(JobMetrics._TIME_FIELDS)}
        assert JobMetrics(**powers).total_seconds == 2.0 ** len(powers) - 1

    def test_counters_not_in_total(self):
        metrics = JobMetrics(tuples_scanned=100, rows_out=5)
        assert metrics.total_seconds == 0.0

    def test_merge_accumulates_everything(self):
        a = JobMetrics(scan=1.0, tuples_scanned=10, jobs=1)
        b = JobMetrics(scan=2.0, stats=0.5, tuples_scanned=5, jobs=1)
        a.merge(b)
        assert a.scan == 3.0
        assert a.stats == 0.5
        assert a.tuples_scanned == 15
        assert a.jobs == 2

    def test_merge_returns_self(self):
        a = JobMetrics()
        assert a.merge(JobMetrics()) is a

    def test_copy_independent(self):
        a = JobMetrics(scan=1.0)
        b = a.copy()
        b.scan = 9.0
        assert a.scan == 1.0

    def test_reoptimization_seconds(self):
        metrics = JobMetrics(startup=2.0, materialize=3.0, scan=10.0)
        assert metrics.reoptimization_seconds == 5.0

    def test_stats_seconds(self):
        assert JobMetrics(stats=1.5).stats_seconds == 1.5

    def test_breakdown_keys(self):
        breakdown = JobMetrics().breakdown()
        assert set(breakdown) == {
            "startup",
            "scan",
            "compute",
            "network",
            "materialize",
            "spill",
            "stats",
            "index",
            "output",
        }


class TestExecutionResult:
    def test_seconds_delegates(self):
        result = ExecutionResult(rows=[], metrics=JobMetrics(scan=4.0))
        assert result.seconds == 4.0
