"""``qerror_stats`` must stay finite under unbounded (inf) Q-error records.

A one-sided-empty stage (estimate > 0, actual = 0, or vice versa) has
Q-error = inf by convention. Before the guard, a single such record turned
the ``worst``/``mean`` aggregates into inf/NaN, which poisoned every report
(and, downstream, any adaptive threshold derived from them).
"""

from __future__ import annotations

import math

from repro.obs.report import qerror_stats
from repro.obs.trace import Tracer


def trace_with(*pairs):
    """One phase span per ``(estimated, actual)`` pair, each carrying both."""
    tracer = Tracer()
    for estimated, actual in pairs:
        with tracer.phase("pushdown:a") as span:
            span.estimated_rows, span.modeled_rows_out = estimated, actual
    return tracer.finish()


class TestQErrorStatsGuard:
    def test_empty_trace(self):
        stats = qerror_stats(trace_with())
        assert stats["records"] == 0
        assert stats["infinite"] == 0
        assert stats["final"] is None
        assert stats["worst"] is None
        assert stats["mean"] is None

    def test_finite_records(self):
        stats = qerror_stats(trace_with((100, 200), (50, 50)))
        assert stats["records"] == 2
        assert stats["infinite"] == 0
        assert stats["final"] == 1.0
        assert stats["worst"] == 2.0
        assert stats["mean"] == 1.5

    def test_infinite_record_does_not_poison_aggregates(self):
        stats = qerror_stats(trace_with((100, 200), (100, 0), (50, 50)))
        assert stats["records"] == 3
        assert stats["infinite"] == 1
        # worst/mean aggregate the finite records only
        assert stats["worst"] == 2.0
        assert math.isfinite(stats["mean"])

    def test_all_infinite_yields_none_not_nan(self):
        stats = qerror_stats(trace_with((100, 0), (0, 100)))
        assert stats["records"] == 2
        assert stats["infinite"] == 2
        assert stats["worst"] is None
        assert stats["mean"] is None

    def test_final_reflects_the_last_record_even_if_infinite(self):
        stats = qerror_stats(trace_with((50, 50), (100, 0)))
        assert stats["final"] == float("inf")
