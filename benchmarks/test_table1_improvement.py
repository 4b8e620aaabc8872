"""Table 1: average improvement of the runtime dynamic approach.

Paper row (SF 100): cost-based 1.34x, pilot-run 1.28x, INGRES-like 1.4x,
best-order 0.88x, worst-order 5.2x; (SF 1000): 1.27x / 1.20x / 1.27x /
0.85x / >10x. The reproduction checks the *directions*: every feedback-free
method averages worse than dynamic, best-order averages slightly better,
worst-order is a multiple.
"""

from __future__ import annotations

import pytest

from repro.bench.comparison import figure7
from repro.bench.table1 import improvement_rows


@pytest.mark.parametrize("scale_factor", (100, 1000))
def test_table1_row(scale_factor, sweep):
    (row,) = improvement_rows(sweep.run(figure7((scale_factor,))), (scale_factor,))
    assert row.ratios["best_order"] < 1.0
    assert row.ratios["worst_order"] > 2.5
    assert row.ratios["cost_based"] > 1.0
    assert row.ratios["pilot_run"] > 1.0
    assert row.ratios["ingres"] > 1.0
