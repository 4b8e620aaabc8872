"""Ablations of the dynamic approach's design choices (DESIGN.md §6).

Not figures from the paper — these isolate the mechanisms the paper credits
for its wins:

- **feedback**: full re-optimization vs push-down-only (refined base
  statistics but no mid-query feedback) vs no push-down at all;
- **cost-model fidelity**: the static DP baseline under the paper's
  cardinality cost vs a movement-aware cost model (how much of the dynamic
  win is estimation quality rather than search quality);
- **re-optimization budget**: Section 8 asks about fewer re-optimization
  points — push-down-only is the zero-points end of that trade-off.
"""

from __future__ import annotations

import pytest

from repro.bench.overhead import no_pushdown_variant, single_shot_variant
from repro.bench.runner import QUERIES, workbench_for_query
from repro.core.driver import DynamicOptimizer
from repro.optimizers.static_cost import CostBasedOptimizer


def run_variant(label, scale_factor, execute):
    """``execute(query, session)`` on the query's workbench."""
    bench = workbench_for_query(label, scale_factor)
    try:
        return execute(bench.query(label), bench.session)
    finally:
        bench.session.reset_intermediates()


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_ablation_feedback_value(query):
    """Full dynamic vs push-down-only vs no-push-down, SF 100."""
    full = run_variant(query, 100, DynamicOptimizer().execute)
    pushdown_only = run_variant(query, 100, single_shot_variant)
    no_pushdown = run_variant(query, 100, no_pushdown_variant)
    assert len(full.rows) == len(pushdown_only.rows) == len(no_pushdown.rows)
    # neither ablation may be better by a wide margin: feedback never hurts
    # much, and dropping it can hurt a lot
    assert pushdown_only.seconds > full.seconds * 0.7
    assert no_pushdown.seconds > full.seconds * 0.7


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_ablation_cost_model_fidelity(query):
    """C_out DP (the paper's static baseline) vs movement-aware DP, SF 100."""
    cout = run_variant(query, 100, CostBasedOptimizer().execute)
    aware = run_variant(query, 100, CostBasedOptimizer(movement_aware=True).execute)
    assert len(cout.rows) == len(aware.rows)
    # a better cost model never loses badly to the cardinality cost
    assert aware.seconds <= cout.seconds * 1.25


def test_ablation_reoptimization_points_scale():
    """More joins -> more re-optimization points -> more overhead jobs."""
    q50 = run_variant("Q50", 100, DynamicOptimizer().execute)   # 4 joins
    q17 = run_variant("Q17", 100, DynamicOptimizer().execute)   # 7 joins
    q50_joins = sum(1 for p in q50.phases if p.startswith("join:"))
    q17_joins = sum(1 for p in q17.phases if p.startswith("join:"))
    assert q17_joins > q50_joins
