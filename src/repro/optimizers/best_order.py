"""Best-order baseline.

Section 7.2: "the best-order plan assumes that the user knows the optimal
order generated by our approach and uses that order in the FROM clause when
writing the query. We also put some broadcast hints so the default optimizer
can choose the broadcast algorithm."

Operationally: the join tree the dynamic optimizer would produce is executed
as a *single pipelined job* — no re-optimization points, no materialization,
no online statistics. It is therefore faster than the dynamic approach by
exactly the dynamic overhead, which is what Table 1's 0.85-0.88x entries
measure.
"""

from __future__ import annotations

from repro.algebra.plan import PlanNode
from repro.lang.ast import Query
from repro.optimizers.base import Optimizer, single_job_stages


class BestOrderOptimizer(Optimizer):
    """Replay the dynamic plan as one job (the user-knows-best baseline)."""

    name = "best_order"

    def __init__(self, inl_enabled: bool = False, tree: PlanNode | None = None) -> None:
        self.inl_enabled = inl_enabled
        #: Optional pre-captured dynamic plan; when absent a scratch dynamic
        #: run derives it (uncharged — the "user" already knew the order).
        self.tree = tree

    def stages(self, query: Query, session, namespace: str = ""):
        tree = self.tree
        if tree is None:
            from repro.core.driver import DynamicOptimizer  # avoids a cycle

            # The scout is a blocking run of its own before the first yield:
            # its private scheduler drops what it materialized when it
            # finishes, leaving every other query's intermediates untouched.
            scout = DynamicOptimizer(inl_enabled=self.inl_enabled)
            tree = scout.execute(query, session).plan
        return (
            yield from single_job_stages(
                tree, query, session, namespace, label="best-order"
            )
        )
