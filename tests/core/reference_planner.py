"""The annotate-every-candidate planner, kept as the test reference.

Until the planner learned to annotate only the join it returns, every
candidate of a ranking was built as an oriented, algorithm-annotated
:class:`~repro.algebra.plan.JoinNode` (``PlannerToolkit.make_join``), and
every round of the greedy full plan annotated every pair it compared by the
annotated node's ``estimated_rows``. ``repro.core.planner`` and
``repro.core.driver.greedy_full_plan`` now rank on estimates alone and
annotate only the pick; this module is the old code, so
``test_planner_differential.py`` can assert the two agree node for node.
"""

from __future__ import annotations

from repro.algebra.plan import PlanNode
from repro.algebra.toolkit import PlannerToolkit
from repro.common.errors import OptimizationError
from repro.core.planner import PlannedJoin, RankFunction


def ranked_joins(toolkit: PlannerToolkit, rank: RankFunction) -> list[PlannedJoin]:
    """All candidate joins, each annotated, cheapest first (ties broken by
    alias names)."""
    graph = toolkit.join_graph()
    if not graph:
        return []
    planned = []
    for pair, conditions in graph.items():
        a, b = sorted(pair)
        node = toolkit.make_join(toolkit.leaf(a), toolkit.leaf(b), conditions)
        planned.append(
            PlannedJoin(pair, tuple(conditions), rank(toolkit, a, b, conditions), node)
        )
    planned.sort(key=lambda p: (p.rank, tuple(sorted(p.pair))))
    return planned


def greedy_full_plan(toolkit: PlannerToolkit) -> PlanNode:
    """Estimate-only greedy join tree, every candidate of a round annotated
    and compared by its annotated ``estimated_rows``."""
    nodes: list[PlanNode] = [toolkit.leaf(alias) for alias in toolkit.query.aliases]
    while len(nodes) > 1:
        best = None
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                conditions = toolkit.conditions_across(
                    nodes[i].aliases, nodes[j].aliases
                )
                if not conditions:
                    continue
                candidate = toolkit.make_join(nodes[i], nodes[j], conditions)
                key = (
                    candidate.estimated_rows,
                    tuple(sorted(nodes[i].aliases | nodes[j].aliases)),
                )
                if best is None or key < best[0]:
                    best = (key, i, j, candidate)
        if best is None:
            raise OptimizationError("join graph is disconnected (cross product)")
        _, i, j, joined = best
        nodes = [n for k, n in enumerate(nodes) if k not in (i, j)] + [joined]
    return nodes[0]
