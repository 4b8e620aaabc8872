"""The paper's contribution: runtime dynamic optimization (Algorithm 1)."""

from repro.core.driver import DynamicOptimizer, greedy_full_plan, resolve_logical
from repro.core.planner import (
    PlannedJoin,
    Planner,
    rank_by_input_cardinality,
    rank_by_result_cardinality,
)
from repro.core.predicate_pushdown import (
    PushdownOutcome,
    intermediate_name_for,
    pushdown_stages,
)
from repro.core.reconstruction import reconstruct_after_join, replace_filtered_table

__all__ = [
    "DynamicOptimizer",
    "PlannedJoin",
    "Planner",
    "PushdownOutcome",
    "greedy_full_plan",
    "intermediate_name_for",
    "pushdown_stages",
    "rank_by_input_cardinality",
    "rank_by_result_cardinality",
    "reconstruct_after_join",
    "replace_filtered_table",
    "resolve_logical",
]

from repro.core.driver import DriverState, SimulatedFailure  # noqa: E402

__all__ += ["DriverState", "SimulatedFailure"]
