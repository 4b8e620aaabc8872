"""Differential test: annotate-the-pick planning ≡ annotate-every-candidate.

``Planner.cheapest_join`` ranks every candidate and annotates only the join
it returns; ``greedy_full_plan`` ranks each round's pairs on unannotated
estimates (formula (1) does not depend on which input builds) and annotates
only the merge it takes. ``tests/core/reference_planner.py`` keeps the old
code, which annotated every candidate. Over the generated universes of
``tests/integration/test_property_random_queries.py``, every pick and every
greedy tree a run asks for must equal the reference's on a fresh toolkit
over the same statistics, node for node: pair, build side, keys, algorithm,
``estimated_rows`` and ``decided_build_bytes``.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import example, given, settings

from repro.algebra.plan import JoinNode, PlanNode
from repro.algebra.toolkit import PlannerToolkit
from repro.bench.feedback import EveryPoint
from repro.core import driver
from repro.core.planner import Planner
from repro.core.policy import ReplanPolicy
from repro.optimizers import greedy_static
from repro.spec import PlannerSpec

from tests.core import reference_planner
from tests.integration.test_property_random_queries import (
    EVERY_POINT_DRAW,
    FUSED_DRAW,
    build_case,
    universe,
)


def shape(node: PlanNode) -> object:
    """Everything a plan node decides, recursively — ``JoinNode`` equality
    leaves ``estimated_rows`` and ``decided_build_bytes`` out."""
    if not isinstance(node, JoinNode):
        return node
    return (
        shape(node.build),
        shape(node.probe),
        node.build_keys,
        node.probe_keys,
        node.algorithm,
        node.estimated_rows,
        node.decided_build_bytes,
    )


def fresh(toolkit: PlannerToolkit) -> PlannerToolkit:
    """A toolkit over the same query and statistics with an empty estimate
    cache, so the reference shares nothing with the code under test."""
    return PlannerToolkit(
        toolkit.query,
        toolkit.session,
        toolkit.statistics,
        toolkit.inl_enabled,
        toolkit.estimator.composite_rule,
    )


#: the code under test, before the wrappers below replace it
CHEAPEST_JOIN = Planner.cheapest_join
GREEDY_FULL_PLAN = driver.greedy_full_plan


class Checked:
    """Wraps the planner's two entry points; counts the points compared."""

    def __init__(self) -> None:
        self.picks = 0
        self.trees = 0

    def cheapest_join(self, planner: Planner):
        picked = CHEAPEST_JOIN(planner)
        expected = reference_planner.ranked_joins(fresh(planner.toolkit), planner.rank)
        ranked = planner.ranked_joins()
        assert [(r.pair, r.conditions, r.rank) for r in ranked] == [
            (p.pair, p.conditions, p.rank) for p in expected
        ]
        best = expected[0]
        assert (picked.pair, picked.conditions, picked.rank) == (
            best.pair,
            best.conditions,
            best.rank,
        )
        assert shape(picked.node) == shape(best.node)
        self.picks += 1
        return picked

    def greedy_full_plan(self, toolkit: PlannerToolkit) -> PlanNode:
        plan = GREEDY_FULL_PLAN(toolkit)
        assert shape(plan) == shape(reference_planner.greedy_full_plan(fresh(toolkit)))
        self.trees += 1
        return plan

    def run(self, case) -> None:
        """Every strategy that plans through the two entry points."""
        session, query = build_case(*case)
        runs = (
            lambda: session.execute(query, "dynamic"),
            lambda: EveryPoint().execute(query, session),
            lambda: session.execute(query, "ingres"),
            lambda: session.execute(query, "greedy_static"),
            lambda: session.execute(
                query, PlannerSpec.of("dynamic", policy=ReplanPolicy.default())
            ),
        )
        with (
            mock.patch.object(Planner, "cheapest_join", lambda p: self.cheapest_join(p)),
            mock.patch.object(driver, "greedy_full_plan", self.greedy_full_plan),
            mock.patch.object(greedy_static, "greedy_full_plan", self.greedy_full_plan),
        ):
            for execute in runs:
                execute()
                session.reset_intermediates()


@settings(max_examples=15, deadline=None)
@given(universe(max_dims=5))
@example(case=FUSED_DRAW)
@example(case=EVERY_POINT_DRAW)
def test_every_pick_and_greedy_tree_match_the_reference(case):
    Checked().run(case)


def test_the_pinned_draws_compare_picks_and_trees():
    """Positive control: the comparison above is not vacuous — the fused
    draw plans a greedy tree, the large one picks at every point."""
    fused = Checked()
    fused.run(FUSED_DRAW)
    assert fused.trees > 0
    every_point = Checked()
    every_point.run(EVERY_POINT_DRAW)
    assert every_point.picks >= 3
