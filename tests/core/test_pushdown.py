"""Predicate push-down execution tests (Algorithm 1 lines 6-9, 20-23)."""

import pytest

from repro.algebra.rules.pushdown import PushdownCandidate
from repro.core.predicate_pushdown import (
    intermediate_name_for,
    join_columns_of,
    pushdown_cache_token,
    pushdown_stages,
)
from repro.core.predicate_transfer import transfer_cache_token
from repro.engine.bloom import BloomFilter
from repro.engine.scheduler import QueryRun, run_solo
from repro.lang.ast import ParameterPredicate, TableRef, UdfPredicate

from tests.conftest import build_star_session, star_query


@pytest.fixture
def session():
    return build_star_session()


def run_pushdowns(session, query):
    """Run the push-down group alone, as query 1 of a one-query schedule.

    The scheduler drops the query's intermediates when it finishes, so the
    materialized datasets are kept here, by name, before it does.
    """
    materialized = {}

    def stages(namespace):
        run = QueryRun(query, session, "pushdown", namespace)
        outcome = yield from pushdown_stages(run, session)
        for name in outcome.intermediates.values():
            materialized[name] = session.datasets.get(name)
        return outcome, run

    outcome, run = run_solo(query, stages, session)
    assert not [n for n in session.datasets.names() if n.startswith("__q")]
    phases = [span.name for span in run.tracer.finish().phase_spans()]
    return outcome, run.statistics, run.metrics, phases, materialized


class TestPushdownExecution:
    def test_only_qualifying_tables_pushed(self, session):
        # da: single simple predicate -> no; db: single UDF -> yes;
        # dc: two simple predicates -> yes
        outcome, _, _, phases, _ = run_pushdowns(session, star_query())
        assert sorted(outcome.executed_aliases) == ["db", "dc"]
        assert phases == [f"pushdown:{a}" for a in outcome.executed_aliases]

    def test_intermediates_materialized_and_filtered(self, session):
        _, _, _, _, materialized = run_pushdowns(session, star_query())
        filtered_db = materialized[intermediate_name_for("db", "__q1")]
        assert filtered_db.is_intermediate
        rows = list(filtered_db.rows())
        # mymod10(b_attr) = 1 keeps b_attr == 1 -> 8 of 40 rows
        assert len(rows) == 8
        # only surviving columns kept (the join key)
        assert all(set(row) == {"db.b_id"} for row in rows)

    def test_statistics_updated(self, session):
        _, working, _, _, _ = run_pushdowns(session, star_query())
        stats = working.get(intermediate_name_for("dc", "__q1"))
        assert stats.row_count == 10  # c_attr == 1 keeps 10 of 30
        # sketches collected on join-participating columns
        assert "dc.c_id" in stats.fields
        # session statistics untouched
        assert not session.statistics.has(intermediate_name_for("dc", "__q1"))

    def test_query_rewritten(self, session):
        outcome, _, _, _, _ = run_pushdowns(session, star_query())
        rewritten = outcome.query
        assert rewritten.table("db").dataset == intermediate_name_for("db", "__q1")
        assert rewritten.predicates_for("db") == ()
        # da keeps its estimable single predicate
        assert len(rewritten.predicates_for("da")) == 1

    def test_costs_charged(self, session):
        _, _, metrics, _, _ = run_pushdowns(session, star_query())
        assert metrics.jobs == 2
        assert metrics.startup > 0
        assert metrics.materialize > 0
        assert metrics.scan > 0

    def test_join_columns_of(self):
        columns = join_columns_of(star_query())
        assert "fact.f_a" in columns and "da.a_id" in columns

    def test_no_candidates_no_jobs(self, session):
        from repro.lang.builder import QueryBuilder

        query = (
            QueryBuilder()
            .select("fact.f_val")
            .from_table("fact")
            .from_table("da")
            .where_eq("da.a_attr", 2)
            .join("fact.f_a", "da.a_id")
            .build()
        )
        outcome, _, metrics, _, _ = run_pushdowns(session, query)
        assert outcome.executed_aliases == []
        assert metrics.jobs == 0
        assert outcome.query == query


class TestCacheTokens:
    """A token names the work, so a cached materialization replays only for
    byte-identical work: the parameters it reads, under the alias it uses."""

    @staticmethod
    def candidate(alias: str = "db") -> PushdownCandidate:
        return PushdownCandidate(
            TableRef("db", alias),
            (
                UdfPredicate(f"{alias}.b_attr", "mymod10", "=", 1),
                ParameterPredicate(f"{alias}.b_id", ">=", "first"),
            ),
            (f"{alias}.b_id",),
        )

    def test_pushdown_token_binds_only_the_parameters_it_reads(self):
        stats = ("db.b_id",)
        token = pushdown_cache_token(self.candidate(), stats, {"first": 3, "low": 0})
        # a fact-table window the push-down never reads
        assert token == pushdown_cache_token(
            self.candidate(), stats, {"first": 3, "low": 500, "high": 549}
        )
        assert token != pushdown_cache_token(self.candidate(), stats, {"first": 4})

    def test_pushdown_token_keeps_the_alias(self):
        # predicates, kept columns and the intermediate's physical columns
        # are alias-qualified: a replay under another alias cannot resolve
        parameters = {"first": 3}
        assert pushdown_cache_token(
            self.candidate("b1"), ("b1.b_id",), parameters
        ) != pushdown_cache_token(self.candidate("b2"), ("b2.b_id",), parameters)

    def test_transfer_token_binds_only_the_parameters_it_reads(self):
        candidate = self.candidate()
        filters = (("db.b_id", BloomFilter.build(range(10), 10)),)

        def token(parameters):
            return transfer_cache_token(
                "db",
                candidate.predicates,
                candidate.keep_columns,
                ("db.b_id",),
                filters,
                parameters,
            )

        assert token({"first": 3, "low": 0}) == token({"first": 3, "low": 500})
        assert token({"first": 3}) != token({"first": 4})
