"""Dynamic optimization driver tests (Algorithm 1 end to end)."""

from dataclasses import replace

import pytest

from repro.algebra.plan import JoinNode
from repro.algebra.toolkit import PlannerToolkit
from repro.bench.overhead import no_pushdown_variant, single_shot_variant
from repro.core.driver import (
    DynamicOptimizer,
    SimulatedFailure,
    greedy_full_plan,
    resolve_logical,
)
from repro.algebra.plan import LeafNode
from repro.testing import evaluate_reference, rows_equal_unordered

from tests.conftest import build_star_session, star_query


@pytest.fixture
def session():
    return build_star_session()


class TestDriverEndToEnd:
    def test_result_matches_reference(self, session):
        query = star_query()
        result = DynamicOptimizer().execute(query, session)
        session.reset_intermediates()
        reference = evaluate_reference(query, session)
        assert rows_equal_unordered(result.rows, reference)

    def test_phases_follow_algorithm_1(self, session):
        query = star_query()
        result = DynamicOptimizer().execute(query, session)
        session.reset_intermediates()
        # 2 pushdowns (db, dc), 1 re-optimized join (3 joins -> loop once),
        # then the final 2-join job.
        pushdowns = [p for p in result.phases if p.startswith("pushdown:")]
        joins = [p for p in result.phases if p.startswith("join:")]
        assert len(pushdowns) == 2
        assert len(joins) == 1
        assert result.phases[-1] == "final"

    def test_plan_capture_over_original_tables(self, session):
        query = star_query()
        optimizer = DynamicOptimizer()
        optimizer.execute(query, session)
        session.reset_intermediates()
        tree = optimizer.last_tree
        assert tree.aliases == frozenset(("fact", "da", "db", "dc"))
        # leaf predicates restored on the captured tree
        filtered = [l for l in tree.leaves() if l.predicates]
        assert {l.alias for l in filtered} == {"da", "db", "dc"}

    def test_metrics_include_overheads(self, session):
        result = DynamicOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert result.metrics.materialize > 0
        assert result.metrics.jobs == 4  # 2 pushdowns + 1 join + final

    def test_online_stats_are_their_own_charge(self, session):
        # Figure 6's "no online statistics" bar folds the stats field out
        # of this run's metrics, so the run must charge its sketches there.
        result = DynamicOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert result.metrics.stats > 0.0
        assert replace(result.metrics, stats=0.0).total_seconds < result.seconds

    def test_pushdown_disabled(self, session):
        result = no_pushdown_variant(star_query(), session)
        session.reset_intermediates()
        assert not any(p.startswith("pushdown") for p in result.phases)
        reference = evaluate_reference(star_query(), session)
        assert rows_equal_unordered(result.rows, reference)

    def test_single_shot_mode(self, session):
        result = single_shot_variant(star_query(), session)
        session.reset_intermediates()
        assert result.phases[-1] == "single-shot"
        # pushdown jobs + exactly one query job
        assert result.metrics.jobs == 3
        reference = evaluate_reference(star_query(), session)
        assert rows_equal_unordered(result.rows, reference)

    def test_two_join_query_skips_loop(self, session):
        from repro.lang.builder import QueryBuilder

        query = (
            QueryBuilder()
            .select("fact.f_val")
            .from_table("fact")
            .from_table("da")
            .from_table("db")
            .join("fact.f_a", "da.a_id")
            .join("fact.f_b", "db.b_id")
            .build()
        )
        result = DynamicOptimizer().execute(query, session)
        session.reset_intermediates()
        assert result.metrics.jobs == 1  # just the final job
        assert rows_equal_unordered(result.rows, evaluate_reference(query, session))

    def test_intermediates_cleaned_by_reset(self, session):
        # a finished run leaves nothing; a failed run keeps its checkpoint
        DynamicOptimizer().execute(star_query(), session)
        assert not any(n.startswith("__") for n in session.datasets.names())
        with pytest.raises(SimulatedFailure):
            DynamicOptimizer(fail_after_jobs=2).execute(star_query(), session)
        assert any(n.startswith("__q") for n in session.datasets.names())
        session.reset_intermediates()
        assert not any(n.startswith("__") for n in session.datasets.names())


class TestResolveLogical:
    def test_substitutes_registered_subtrees(self):
        leaf_a = LeafNode("a", "ta")
        registry = {"__join_0": leaf_a}
        node = LeafNode("__join_0", "__join_0")
        assert resolve_logical(node, registry) is leaf_a

    def test_recurses_joins(self):
        leaf_a, leaf_b = LeafNode("a", "ta"), LeafNode("b", "tb")
        node = JoinNode(
            build=LeafNode("__x", "__x"),
            probe=leaf_b,
            build_keys=("a.k",),
            probe_keys=("b.k",),
        )
        resolved = resolve_logical(node, {"__x": leaf_a})
        assert resolved.build is leaf_a
        assert resolved.probe is leaf_b


class TestGreedyFullPlan:
    def test_covers_all_aliases(self, session):
        query = star_query()
        plan = greedy_full_plan(PlannerToolkit(query, session))
        assert plan.aliases == frozenset(query.aliases)

    def test_disconnected_rejected(self, session):
        from repro.common.errors import OptimizationError
        from repro.lang.ast import Query, TableRef

        query = Query(
            select=("da.a_id",),
            tables=(TableRef("da", "da"), TableRef("db", "db")),
        )
        with pytest.raises(OptimizationError):
            greedy_full_plan(PlannerToolkit(query, session))
