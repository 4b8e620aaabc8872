"""Query Reconstruction tests (Section 5.4)."""

import pytest

from repro.common.errors import QueryError
from repro.common.types import DataType, Schema
from repro.core.reconstruction import reconstruct_after_join, replace_filtered_table
from repro.lang.binding import ColumnResolver
from repro.storage.ingest import register_intermediate

from tests.conftest import build_star_session, star_query


@pytest.fixture
def session():
    return build_star_session()


class TestReplaceFilteredTable:
    def test_swaps_dataset_and_drops_predicates(self):
        query = star_query()
        rewritten = replace_filtered_table(query, "da", "__filtered_da")
        assert rewritten.table("da").dataset == "__filtered_da"
        assert rewritten.predicates_for("da") == ()
        # other clauses untouched
        assert rewritten.select == query.select
        assert rewritten.joins == query.joins
        assert len(rewritten.predicates) == len(query.predicates) - 1


class TestReconstructAfterJoin:
    def make_intermediate(self, session, columns):
        schema = Schema.of(*[(c, DataType.INT) for c in columns])
        register_intermediate("__join_0", schema, {}, [0, 0], None, session.datasets)

    def test_rewrites_from_and_where(self, session):
        query = star_query()
        resolver = ColumnResolver(query, session.datasets.schema_lookup)
        self.make_intermediate(
            session, ["fact.f_val", "fact.f_b", "fact.f_c", "da.a_attr"]
        )
        rewritten = reconstruct_after_join(
            query, resolver, frozenset(("fact", "da")), "__join_0"
        )
        assert set(rewritten.aliases) == {"db", "dc", "__join_0"}
        # the executed join condition is gone, the other two remain
        assert len(rewritten.joins) == 2
        # predicates of the merged pair are gone
        assert all(p.alias not in ("fact", "da") for p in rewritten.predicates)
        # SELECT clause is textually unchanged (qualified names survive)
        assert rewritten.select == query.select

    def test_remaining_joins_rebind_to_intermediate(self, session):
        query = star_query()
        resolver = ColumnResolver(query, session.datasets.schema_lookup)
        self.make_intermediate(
            session, ["fact.f_val", "fact.f_b", "fact.f_c", "da.a_attr"]
        )
        rewritten = reconstruct_after_join(
            query, resolver, frozenset(("fact", "da")), "__join_0"
        )
        new_resolver = ColumnResolver(rewritten, session.datasets.schema_lookup)
        graph = new_resolver.join_graph()
        assert frozenset(("__join_0", "db")) in graph
        assert frozenset(("__join_0", "dc")) in graph

    def test_missing_alias_rejected(self, session):
        query = star_query()
        resolver = ColumnResolver(query, session.datasets.schema_lookup)
        with pytest.raises(QueryError):
            reconstruct_after_join(query, resolver, frozenset(("ghost", "da")), "x")

    def test_join_count_decreases_by_one(self, session):
        query = star_query()
        resolver = ColumnResolver(query, session.datasets.schema_lookup)
        self.make_intermediate(
            session, ["fact.f_val", "fact.f_b", "fact.f_c", "da.a_attr"]
        )
        rewritten = reconstruct_after_join(
            query, resolver, frozenset(("fact", "da")), "__join_0"
        )
        assert rewritten.join_count() == query.join_count() - 1
