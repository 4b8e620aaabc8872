"""Ablations of the dynamic approach's design choices (DESIGN.md §6).

Not figures from the paper — these isolate the mechanisms the paper credits
for its wins, each ablation a :data:`~repro.bench.sweep.VARIANTS` cell:

- **feedback**: full re-optimization vs push-down-only (``single_shot``:
  refined base statistics but no mid-query feedback) vs no push-down at all
  (``no_pushdown``);
- **cost-model fidelity**: the static DP baseline under the paper's
  cardinality cost vs a movement-aware cost model (``movement_aware``: how
  much of the dynamic win is estimation quality rather than search quality);
- **re-optimization budget**: Section 8 asks about fewer re-optimization
  points — push-down-only is the zero-points end of that trade-off.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import QUERIES
from repro.bench.sweep import Key, execute


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_ablation_feedback_value(query, sweep):
    """Full dynamic vs push-down-only vs no-push-down, SF 100."""
    full, pushdown_only, no_pushdown = sweep.run(
        [Key(query, 100, variant) for variant in ("dynamic", "single_shot", "no_pushdown")]
    )
    assert full.rows == pushdown_only.rows == no_pushdown.rows
    # neither ablation may be better by a wide margin: feedback never hurts
    # much, and dropping it can hurt a lot
    assert pushdown_only.seconds > full.seconds * 0.7
    assert no_pushdown.seconds > full.seconds * 0.7


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_ablation_cost_model_fidelity(query, sweep):
    """C_out DP (the paper's static baseline) vs movement-aware DP, SF 100."""
    cout, aware = sweep.run(
        [Key(query, 100, "cost_based"), Key(query, 100, "movement_aware")]
    )
    assert cout.rows == aware.rows
    # a better cost model never loses badly to the cardinality cost
    assert aware.seconds <= cout.seconds * 1.25


def test_ablation_reoptimization_points_scale():
    """More joins -> more re-optimization points -> more overhead jobs."""
    q50 = execute(Key("Q50", 100, "dynamic"))  # 4 joins
    q17 = execute(Key("Q17", 100, "dynamic"))  # 7 joins
    q50_joins = sum(1 for p in q50.phases if p.startswith("join:"))
    q17_joins = sum(1 for p in q17.phases if p.startswith("join:"))
    assert q17_joins > q50_joins
