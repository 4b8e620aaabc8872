"""Figure 6: overhead of re-optimization points, online statistics and
predicate push-down (Section 7.1).

Paper reference points: re-optimization ~10% of execution time at SF 100
(2% for Q50, which has the fewest joins) rising to ~15% at SF 1000; online
statistics 1-3% (SF 100) to ≤5% (SF 1000); predicate push-down ≤3%.
"""

from __future__ import annotations

import pytest

from repro.bench.overhead import figure6, overhead_reports
from repro.bench.runner import QUERIES

SCALE_FACTORS = (100, 1000)


@pytest.mark.parametrize("scale_factor", SCALE_FACTORS)
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_fig6_reopt_online_stats(query, scale_factor, sweep):
    (report,) = overhead_reports(sweep.run(figure6((scale_factor,), (query,))))
    # Shape bounds (generous): overheads exist but stay modest.
    assert 0.0 <= report.reoptimization_fraction < 0.35
    assert 0.0 <= report.online_stats_fraction < 0.15


@pytest.mark.parametrize("scale_factor", SCALE_FACTORS)
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_fig6_pushdown(query, scale_factor, sweep):
    (report,) = overhead_reports(sweep.run(figure6((scale_factor,), (query,))))
    # The paper's bound is <=3%; allow slack for the simulated substrate but
    # require the push-down materialization to stay a small fraction.
    assert report.pushdown_fraction < 0.10
