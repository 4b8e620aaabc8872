"""The Planner stage of Algorithm 1 (lines 25-33).

Given the (reconstructed) query and the freshest statistics, the planner
finds the single join with the least estimated result cardinality — it "does
not need to form the complete plan, but only to find the cheapest next join
for each iteration". When exactly two joins remain it additionally orders
them (the endgame of Figure 3, Plan 2) and the chosen plan is final.

The ranking function is pluggable: the paper's dynamic approach ranks by the
formula-(1) result estimate; the INGRES-like baseline ranks by input dataset
cardinalities only.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.algebra.plan import JoinNode, PlanNode
from repro.algebra.toolkit import PlannerToolkit
from repro.common.errors import OptimizationError
from repro.lang.ast import JoinCondition

#: rank(toolkit, alias_a, alias_b, conditions) -> sort key (lower = better)
RankFunction = Callable[[PlannerToolkit, str, str, list], float]


def rank_by_result_cardinality(
    toolkit: PlannerToolkit, a: str, b: str, conditions: list
) -> float:
    """The paper's dynamic ranking: formula (1) result estimate."""
    return toolkit.estimate_pair(a, b, conditions)


def rank_by_input_cardinality(
    toolkit: PlannerToolkit, a: str, b: str, conditions: list
) -> float:
    """INGRES-like ranking: dataset cardinalities only, no result estimate."""
    return toolkit.input_cardinality(a, b)


@dataclass(frozen=True)
class RankedJoin:
    """One candidate join and its rank; nothing is annotated yet."""

    pair: frozenset
    conditions: tuple[JoinCondition, ...]
    rank: float


@dataclass(frozen=True)
class PlannedJoin(RankedJoin):
    """The planner's pick for the next join to execute, annotated."""

    node: JoinNode


class Planner:
    """One planning invocation over the current query + statistics."""

    def __init__(
        self,
        toolkit: PlannerToolkit,
        rank: RankFunction = rank_by_result_cardinality,
    ) -> None:
        self.toolkit = toolkit
        self.rank = rank

    def ranked_joins(self) -> list[RankedJoin]:
        """All candidate joins, cheapest first (ties broken by alias names)."""
        ranked = []
        for pair, conditions in self.toolkit.join_graph().items():
            a, b = sorted(pair)
            ranked.append(
                RankedJoin(pair, tuple(conditions), self.rank(self.toolkit, a, b, conditions))
            )
        ranked.sort(key=lambda r: (r.rank, tuple(sorted(r.pair))))
        return ranked

    def cheapest_join(self) -> PlannedJoin:
        """Algorithm 1 line 28: the join with the minimum rank, annotated
        (orientation + algorithm) — the only candidate that is."""
        joins = self.ranked_joins()
        if not joins:
            raise OptimizationError("query has no joins to plan")
        best = joins[0]
        a, b = sorted(best.pair)
        toolkit = self.toolkit
        node = toolkit.make_join(toolkit.leaf(a), toolkit.leaf(b), best.conditions)
        return PlannedJoin(best.pair, best.conditions, best.rank, node)

    def final_plan(self) -> PlanNode:
        """Endgame planning once at most two joins remain.

        - 0 joins: a single FROM entry — the leaf is the plan.
        - 1 join: orient + pick the algorithm for it.
        - 2 joins: the cheaper join becomes the inner subtree, then it is
          joined with the remaining FROM entry (Figure 3, Plan 2).
        """
        toolkit = self.toolkit
        graph = toolkit.join_graph()
        if len(graph) > 2:
            raise OptimizationError(
                f"final_plan called with {len(graph)} joins remaining"
            )
        joined_aliases = set().union(*graph) if graph else set()
        unjoined = set(toolkit.query.aliases) - joined_aliases
        if graph and unjoined:
            raise OptimizationError(
                f"FROM entries {sorted(unjoined)} have no join condition "
                "(cross products unsupported)"
            )
        if not graph:
            aliases = toolkit.query.aliases
            if len(aliases) != 1:
                raise OptimizationError(
                    "query without join conditions over multiple tables "
                    "(cross products unsupported)"
                )
            return toolkit.leaf(aliases[0])
        if len(graph) == 1:
            return self.cheapest_join().node

        inner = self.cheapest_join()
        outer_aliases = set(toolkit.query.aliases) - set(inner.pair)
        inner_node = inner.node
        conditions = toolkit.conditions_across(
            inner_node.aliases, frozenset(outer_aliases)
        )
        if not conditions:
            raise OptimizationError(
                "remaining join does not connect to the chosen inner join"
            )
        remaining = sorted(
            {
                alias
                for condition in conditions
                for alias in toolkit.resolver.join_sides(condition)
                if alias not in inner.pair
            }
        )
        if len(remaining) != 1:
            raise OptimizationError(
                f"endgame expected one remaining table, found {remaining}"
            )
        outer_leaf = toolkit.leaf(remaining[0])
        return toolkit.make_join(inner_node, outer_leaf, conditions)
