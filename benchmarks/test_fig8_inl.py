"""Figure 8: the Figure-7 comparison with secondary indexes and the indexed
nested loop join enabled (Section 7.2.3-7.2.4).

Paper claims exercised here:

- worst-order is excluded (no hints -> INL never chosen -> time unchanged);
- the dynamic approach picks INL for the fact ⋈ filtered-dimension joins of
  Q17 and Q50 and (at the scale factors where the filtered part table is
  broadcastable) for Q9's lineitem ⋈ part;
- Q8 triggers INL for no strategy (the candidate builds are either
  unfiltered or too large).
"""

from __future__ import annotations

import pytest

from repro.bench.comparison import figure8
from repro.bench.runner import QUERIES
from repro.bench.sweep import Key

SCALE_FACTORS = (10, 100, 1000)


@pytest.mark.parametrize("scale_factor", SCALE_FACTORS)
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_fig8_group(query, scale_factor, sweep):
    cells = sweep.run(figure8((scale_factor,), (query,)))
    assert all(cell.key.variant != "worst_order" for cell in cells)
    rows = {cell.rows for cell in cells}
    assert len(rows) == 1, f"optimizers disagree on result size: {rows}"

    dynamic = next(cell for cell in cells if cell.key.variant == "dynamic")
    if query in ("Q17", "Q50"):
        assert "⋈i" in dynamic.plan, f"expected INL in dynamic plan: {dynamic.plan}"
    if query == "Q8":
        assert "⋈i" not in dynamic.plan


@pytest.mark.parametrize("scale_factor", (10, 100))
def test_fig8_q9_inl_at_broadcastable_scales(scale_factor, sweep):
    (cell,) = sweep.run([Key("Q9", scale_factor, "dynamic", inl_enabled=True)])
    assert "⋈i" in cell.plan
