"""Greedy static optimizer: the dynamic policy without the feedback.

Plans with exactly the dynamic approach's greedy rule — repeatedly merge the
pair with the smallest estimated join result — but from ingestion-time
statistics only, in one shot, executed as a single pipelined job. It
completes the ablation spectrum:

    cost_based  : exhaustive search, static estimates
    greedy_static: greedy search, static estimates      <- this module
    dynamic     : greedy search, *measured* feedback

Comparing greedy_static against dynamic isolates the value of runtime
feedback; comparing it against cost_based isolates search quality.
"""

from __future__ import annotations

from repro.algebra.toolkit import PlannerToolkit
from repro.core.driver import greedy_full_plan
from repro.lang.ast import Query
from repro.optimizers.base import Optimizer, single_job_stages


class GreedyStaticOptimizer(Optimizer):
    """One-shot greedy planning from ingestion statistics."""

    name = "greedy_static"

    def __init__(self, inl_enabled: bool = False) -> None:
        self.inl_enabled = inl_enabled
        self.last_tree = None

    def stages(self, query: Query, session, namespace: str = ""):
        plan = greedy_full_plan(
            PlannerToolkit(
                query, session, session.statistics.copy(), self.inl_enabled
            )
        )
        self.last_tree = plan
        return (
            yield from single_job_stages(
                plan, query, session, namespace, label="greedy-static"
            )
        )
