"""Static cost-based optimization baseline.

Statistics are collected on the base datasets during ingestion and the
complete execution plan is formed up front (Section 7.2: "we collected
statistics on the base datasets during the ingestion phase and we formed the
complete execution plan at the beginning"). Complex predicates fall back to
the Selinger default selectivity factors, multiple predicates multiply under
the independence assumption, and join estimates propagate through formula (1)
with inherited distinct counts — all of which the dynamic approach's runtime
feedback sidesteps.
"""

from __future__ import annotations

from repro.algebra.toolkit import PlannerToolkit
from repro.lang.ast import Query
from repro.optimizers.base import Optimizer, single_job_stages
from repro.optimizers.enumeration import best_bushy_plan


class CostBasedOptimizer(Optimizer):
    """System-R style exhaustive static optimization, one pipelined job."""

    name = "cost_based"

    def __init__(self, inl_enabled: bool = False, movement_aware: bool = False) -> None:
        self.inl_enabled = inl_enabled
        #: ablation switch: cost plans with the engine-mirroring model
        #: instead of the paper's cardinality cost.
        self.movement_aware = movement_aware
        self.last_tree = None

    def stages(self, query: Query, session, namespace: str = ""):
        toolkit = PlannerToolkit(
            query,
            session,
            session.statistics.copy(),
            self.inl_enabled,
            # Classic Selinger: composite join conjuncts multiply under the
            # independence assumption (see PlanEstimator.composite_rule).
            composite_rule="product",
        )
        plan = best_bushy_plan(toolkit, movement_aware=self.movement_aware)
        self.last_tree = plan
        return (
            yield from single_job_stages(
                plan, query, session, namespace, label="cost-based"
            )
        )
