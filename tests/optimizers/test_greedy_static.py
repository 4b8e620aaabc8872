"""Greedy static optimizer tests (the feedback ablation strategy)."""

import pytest

from repro.optimizers.greedy_static import GreedyStaticOptimizer
from repro.testing import evaluate_reference, rows_equal_unordered

from tests.conftest import build_star_session, star_query


@pytest.fixture
def session():
    return build_star_session()


class TestGreedyStatic:
    def test_single_job(self, session):
        result = GreedyStaticOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert result.metrics.jobs == 1
        assert result.metrics.materialize == 0.0

    def test_correct_rows(self, session):
        result = GreedyStaticOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert rows_equal_unordered(
            result.rows, evaluate_reference(star_query(), session)
        )

    def test_registered(self, session):
        result = session.execute(star_query(), "greedy_static")
        session.reset_intermediates()
        assert result.plan_description

    def test_covers_all_tables(self, session):
        optimizer = GreedyStaticOptimizer()
        optimizer.execute(star_query(), session)
        session.reset_intermediates()
        assert optimizer.last_tree.aliases == frozenset(star_query().aliases)

    def test_ablation_spectrum_on_paper_query(self):
        """greedy_static sits between cost_based and dynamic by construction:
        same search as dynamic, same statistics as cost_based."""
        from repro.bench.runner import run_query

        greedy = run_query("Q50", 100, "greedy_static")
        dynamic = run_query("Q50", 100, "dynamic")
        assert len(greedy.rows) == len(dynamic.rows)
