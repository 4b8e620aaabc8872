"""Figure 7: dynamic vs cost-based vs best/worst-order vs pilot-run vs
INGRES-like, at scale factors 10 / 100 / 1000 (Section 7.2).

Shape assertions follow the paper's qualitative claims:

- every strategy returns the same result rows (correctness);
- worst-order is by far the slowest at SF >= 100;
- best-order beats the dynamic approach by roughly the re-optimization
  overhead (it replays the same plan without the blocking points);
- at SF >= 100 the dynamic approach beats the INGRES-like and pilot-run
  baselines on the queries the paper highlights.
"""

from __future__ import annotations

import pytest

from repro.bench.comparison import figure7
from repro.bench.runner import QUERIES

SCALE_FACTORS = (10, 100, 1000)


@pytest.mark.parametrize("scale_factor", SCALE_FACTORS)
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_fig7_group(query, scale_factor, sweep):
    cells = sweep.run(figure7((scale_factor,), (query,)))
    timings = {cell.key.variant: cell.seconds for cell in cells}

    rows = {cell.rows for cell in cells}
    assert len(rows) == 1, f"optimizers disagree on result size: {rows}"

    dynamic = timings["dynamic"]
    assert dynamic > 0
    if scale_factor >= 100:
        # Worst-order is the catastrophic end of the spectrum.
        assert timings["worst_order"] > 2.0 * dynamic
        # Best-order is the dynamic plan without re-optimization overhead.
        assert timings["best_order"] <= dynamic * 1.02
        assert timings["best_order"] >= dynamic * 0.5
        # The dynamic approach is never beaten by a wide margin by the
        # feedback-free baselines at the paper's scales.
        assert timings["pilot_run"] >= dynamic * 0.95
        assert timings["ingres"] >= dynamic * 0.90
