"""Baseline optimizer behavior tests: from-order, worst, best, static."""

import pytest

from repro.algebra.toolkit import PlannerToolkit
from repro.core.driver import DynamicOptimizer
from repro.optimizers.best_order import BestOrderOptimizer
from repro.optimizers.from_order import FromOrderOptimizer, from_order_plan
from repro.optimizers.static_cost import CostBasedOptimizer
from repro.optimizers.worst_order import (
    WorstOrderOptimizer,
    true_filtered_rows,
    worst_order_aliases,
)
from repro.testing import evaluate_reference, rows_equal_unordered

from tests.conftest import build_star_session, star_query


@pytest.fixture
def session():
    return build_star_session()


class TestFromOrder:
    def test_follows_from_clause_order(self, session):
        toolkit = PlannerToolkit(star_query(), session)
        plan = from_order_plan(toolkit)
        leaves = [l.alias for l in plan.leaves()]
        # fact first, then dims in FROM order, accumulated on the left
        assert leaves == ["fact", "da", "db", "dc"]

    def test_defers_unconnected_tables(self, session):
        from repro.lang.builder import QueryBuilder

        # dims listed before the fact: no dim-dim condition exists, so they
        # defer until fact arrives
        query = (
            QueryBuilder()
            .select("fact.f_val")
            .from_table("da")
            .from_table("db")
            .from_table("fact")
            .join("fact.f_a", "da.a_id")
            .join("fact.f_b", "db.b_id")
            .build()
        )
        toolkit = PlannerToolkit(query, session)
        plan = from_order_plan(toolkit)
        assert plan.aliases == frozenset(("fact", "da", "db"))

    def test_hash_only_without_hints(self, session):
        toolkit = PlannerToolkit(star_query(), session)
        plan = from_order_plan(toolkit)
        assert "⋈b" not in plan.describe()

    def test_hint_triggers_broadcast(self, session):
        from repro.lang.builder import QueryBuilder

        query = (
            QueryBuilder()
            .select("fact.f_val")
            .from_table("fact")
            .from_table("da", broadcast_hint=True)
            .join("fact.f_a", "da.a_id")
            .build()
        )
        toolkit = PlannerToolkit(query, session)
        plan = from_order_plan(toolkit)
        assert "⋈b" in plan.describe()

    def test_executes_correctly(self, session):
        result = FromOrderOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert rows_equal_unordered(
            result.rows, evaluate_reference(star_query(), session)
        )


class TestWorstOrder:
    def test_true_filtered_rows_exact(self, session):
        query = star_query()
        assert true_filtered_rows(query, "dc", session) == 10.0
        assert true_filtered_rows(query, "fact", session) == 2000.0
        # UDF predicate evaluated exactly, not defaulted
        assert true_filtered_rows(query, "db", session) == 8.0

    def test_order_starts_with_biggest_join(self, session):
        toolkit = PlannerToolkit(star_query(), session)
        order = worst_order_aliases(toolkit, session)
        assert set(order) == {"fact", "da", "db", "dc"}
        assert "fact" in order[:2]  # every join touches the fact table

    def test_plan_is_hash_only(self, session):
        result = WorstOrderOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        description = result.plan.describe()
        assert "⋈b" not in description and "⋈i" not in description

    def test_slower_than_dynamic(self, session):
        worst = WorstOrderOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        dynamic = DynamicOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert worst.seconds > dynamic.seconds * 0.8  # star is small; no blowup
        assert rows_equal_unordered(worst.rows, dynamic.rows)


class TestBestOrder:
    def test_replays_dynamic_plan_without_overhead(self, session):
        dyn_result = DynamicOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        best = BestOrderOptimizer(tree=dyn_result.plan)
        best_result = best.execute(star_query(), session)
        session.reset_intermediates()
        assert best_result.plan_description == dyn_result.plan_description
        assert best_result.seconds <= dyn_result.seconds
        assert best_result.metrics.materialize == 0.0
        assert rows_equal_unordered(best_result.rows, dyn_result.rows)

    def test_scouts_when_no_tree_given(self, session):
        result = BestOrderOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert rows_equal_unordered(
            result.rows, evaluate_reference(star_query(), session)
        )
        # scratch run cleaned up
        assert not any(n.startswith("__") for n in session.datasets.names())


class TestCostBased:
    def test_single_job(self, session):
        result = CostBasedOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert result.metrics.jobs == 1
        assert result.metrics.materialize == 0.0

    def test_correct_rows(self, session):
        result = CostBasedOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert rows_equal_unordered(
            result.rows, evaluate_reference(star_query(), session)
        )

    def test_movement_aware_option(self, session):
        result = CostBasedOptimizer(movement_aware=True).execute(
            star_query(), session
        )
        session.reset_intermediates()
        assert rows_equal_unordered(
            result.rows, evaluate_reference(star_query(), session)
        )
