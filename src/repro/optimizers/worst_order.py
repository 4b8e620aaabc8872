"""Worst-order baseline.

Section 7.2: "for the worst-order plan, we enforce a right-deep tree plan
that schedules the joins in decreasing order of join result sizes (the size
of the join results was computed during our optimization)" — i.e. the order
is chosen with *accurate* knowledge (true post-predicate cardinalities) so it
is reliably the expensive end of the spectrum, and no broadcast hints are
given, so every join is a hash join.
"""

from __future__ import annotations

from repro.algebra.plan import PlanNode
from repro.algebra.toolkit import PlannerToolkit
from repro.common.errors import OptimizationError
from repro.engine import vector
from repro.engine.data import scan_batch
from repro.lang.ast import EvaluationContext, Query
from repro.optimizers.base import Optimizer, single_job_stages
from repro.stats.estimation import resolve_field


def true_filtered_rows(query: Query, alias: str, session) -> float:
    """Exact post-predicate cardinality, obtained by running the local
    predicates over the stored columns (the worst-order oracle's knowledge)."""
    table = query.table(alias)
    dataset = session.datasets.get(table.dataset)
    predicates = query.predicates_for(alias)
    if not predicates:
        return float(dataset.row_count)
    context = EvaluationContext(query.parameters, session.udfs)
    batch = scan_batch(dataset, f"{alias}.")
    return float(vector.fused_filter_project(batch, predicates, (), context).length)


def worst_order_aliases(toolkit: PlannerToolkit, session) -> list[str]:
    """Greedy order maximizing each next join's (accurate) result estimate."""
    query = toolkit.query
    rows = {a: true_filtered_rows(query, a, session) for a in query.aliases}

    def distinct(alias: str, column: str) -> float:
        stats = toolkit.table_statistics(alias)
        field = resolve_field(stats, column)
        if field is None or len(field.distinct) == 0:
            return max(1.0, rows[alias])
        return max(1.0, min(field.distinct_count, max(1.0, rows[alias])))

    def scale_of(alias: str) -> float:
        return toolkit.table_statistics(alias).scale

    def pair_result(
        a_rows: float, a_aliases: frozenset, a_scale: float, b: str
    ) -> float | None:
        conditions = toolkit.conditions_across(a_aliases, frozenset((b,)))
        if not conditions:
            return None
        result = a_rows * rows[b]
        for condition in conditions:
            left, right = toolkit.resolver.join_sides(condition)
            col_a, col_b = (
                (condition.left, condition.right)
                if right == b
                else (condition.right, condition.left)
            )
            provider_a = left if right == b else right
            result /= max(distinct(provider_a, col_a), distinct(b, col_b), 1.0)
        return result * max(a_scale, scale_of(b))

    # Seed: the pair with the largest join result.
    best_seed = None
    aliases = list(query.aliases)
    for i, a in enumerate(aliases):
        for b in aliases[i + 1 :]:
            estimate = pair_result(rows[a], frozenset((a,)), scale_of(a), b)
            if estimate is None:
                continue
            if best_seed is None or estimate > best_seed[0]:
                best_seed = (estimate, a, b)
    if best_seed is None:
        raise OptimizationError("query has no join conditions")
    _, a, b = best_seed
    order = [a, b]
    joined = frozenset(order)
    current_scale = max(scale_of(a), scale_of(b))
    current_rows = best_seed[0] / current_scale
    remaining = [x for x in aliases if x not in joined]
    while remaining:
        best_next = None
        for candidate in remaining:
            estimate = pair_result(current_rows, joined, current_scale, candidate)
            if estimate is None:
                continue
            if best_next is None or estimate > best_next[0]:
                best_next = (estimate, candidate)
        if best_next is None:
            raise OptimizationError("join graph is disconnected (cross product)")
        modeled, nxt = best_next
        current_scale = max(current_scale, scale_of(nxt))
        current_rows = modeled / current_scale
        order.append(nxt)
        joined |= {nxt}
        remaining.remove(nxt)
    return order


class WorstOrderOptimizer(Optimizer):
    """Right-deep, hash-only plan over the worst join order."""

    name = "worst_order"

    def __init__(self, inl_enabled: bool = False) -> None:
        # INL never triggers without hints (Section 7.2.2 excludes
        # worst-order from the INL experiments); the flag is accepted for
        # interface uniformity.
        self.inl_enabled = inl_enabled

    def stages(self, query: Query, session, namespace: str = ""):
        toolkit = PlannerToolkit(query, session, session.statistics.copy())
        order = worst_order_aliases(toolkit, session)
        current: PlanNode = toolkit.leaf(order[0])
        for alias in order[1:]:
            conditions = toolkit.conditions_across(
                current.aliases, frozenset((alias,))
            )
            # Right-deep compilation builds on the accumulated input — with
            # the worst order that is a never-pruned fact-sized intermediate,
            # so every join both reshuffles and spills it.
            current = toolkit.make_join(
                current,
                toolkit.leaf(alias),
                conditions,
                force_hash=True,
                build_side="left",
            )
        return (
            yield from single_job_stages(
                current, query, session, namespace, label="worst-order"
            )
        )
