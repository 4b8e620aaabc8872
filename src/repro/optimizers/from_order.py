"""Stock-AsterixDB baseline: join order follows the FROM clause.

Section 3: "the join order in AsterixDB currently depends on the order of
the datasets in the FROM clause of the query (i.e., datasets are picked in
the order they appear in it)"; hash join is the default "unless there are
query hints that make the optimizer pick one of the other two algorithms".

This strategy underlies both user-order baselines: best-order feeds it the
dynamic plan's order + broadcast hints; worst-order feeds it the most
expensive right-deep order with no hints.
"""

from __future__ import annotations

from repro.algebra.plan import PlanNode
from repro.algebra.toolkit import PlannerToolkit
from repro.common.errors import OptimizationError
from repro.lang.ast import Query
from repro.optimizers.base import Optimizer, single_job_stages


def from_order_plan(
    toolkit: PlannerToolkit, honor_hints: bool = True, force_hash: bool = False
) -> PlanNode:
    """Fold the FROM clause into a linear join tree.

    Tables join in FROM order; a table with no join condition against the
    accumulated tree is deferred until one connects (cross products are
    rejected, as in the real system without special handling).
    """
    pending = list(toolkit.query.aliases)
    if not pending:
        raise OptimizationError("query has no FROM entries")
    current: PlanNode = toolkit.leaf(pending.pop(0))
    guard = 0
    while pending:
        guard += 1
        if guard > len(toolkit.query.aliases) ** 2 + 10:
            raise OptimizationError("join graph is disconnected (cross product)")
        alias = pending.pop(0)
        conditions = toolkit.conditions_across(
            current.aliases, frozenset((alias,))
        )
        if not conditions:
            pending.append(alias)
            continue
        current = toolkit.make_join(
            current,
            toolkit.leaf(alias),
            conditions,
            honor_hints_only=honor_hints and not force_hash,
            force_hash=force_hash,
            build_side="left",
        )
    return current


class FromOrderOptimizer(Optimizer):
    """Execute the query exactly as written: FROM order + hints only."""

    name = "from_order"

    def __init__(self, inl_enabled: bool = False, force_hash: bool = False) -> None:
        self.inl_enabled = inl_enabled
        self.force_hash = force_hash
        self.last_tree = None

    def stages(self, query: Query, session, namespace: str = ""):
        toolkit = PlannerToolkit(
            query, session, session.statistics.copy(), self.inl_enabled
        )
        plan = from_order_plan(toolkit, force_hash=self.force_hash)
        self.last_tree = plan
        return (
            yield from single_job_stages(
                plan, query, session, namespace, label="from-order"
            )
        )
