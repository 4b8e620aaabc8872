"""TPC-DS workload generator and query tests."""

import pytest

from repro.session import Session
from repro.workloads import get_workload
from repro.workloads.tpcds import generate, query_17, query_50
from repro.workloads.tpcds.generator import day_fields
from repro.workloads.tpcds.schema import (
    CALENDAR_DAYS,
    SCHEMAS,
    customer_population,
    real_row_counts,
    row_counts,
)


@pytest.fixture(scope="module")
def tables():
    return generate(10)


class TestCalendar:
    def test_day_fields(self):
        first = day_fields(0)
        assert first == {"d_date_sk": 0, "d_year": 1999, "d_moy": 1, "d_dom": 1}
        last = day_fields(CALENDAR_DAYS - 1)
        assert last["d_year"] == 2001
        assert 1 <= last["d_moy"] <= 12

    def test_date_dim_fixed_size(self):
        assert row_counts(1)["date_dim"] == CALENDAR_DAYS
        assert row_counts(100)["date_dim"] == CALENDAR_DAYS

    def test_months_cover_year(self, tables):
        months_2000 = {
            d["d_moy"] for d in tables["date_dim"] if d["d_year"] == 2000
        }
        assert months_2000 == set(range(1, 13))


class TestGeneratedData:
    def test_counts(self, tables):
        counts = row_counts(1)
        for name, rows in tables.items():
            assert len(rows) == counts[name]

    def test_schemas_match(self, tables):
        for name, rows in tables.items():
            fields = set(SCHEMAS[name].field_names)
            for row in rows[:20]:
                assert set(row) == fields

    def test_returns_derive_from_sales(self, tables):
        sale_triples = {
            (s["ss_customer_sk"], s["ss_item_sk"], s["ss_ticket_number"])
            for s in tables["store_sales"]
        }
        for ret in tables["store_returns"]:
            triple = (
                ret["sr_customer_sk"],
                ret["sr_item_sk"],
                ret["sr_ticket_number"],
            )
            assert triple in sale_triples

    def test_return_dates_after_sale(self, tables):
        # triples may repeat (same item twice on one ticket): compare against
        # the earliest matching sale
        earliest: dict = {}
        for s in tables["store_sales"]:
            triple = (s["ss_customer_sk"], s["ss_item_sk"], s["ss_ticket_number"])
            earliest[triple] = min(
                earliest.get(triple, s["ss_sold_date_sk"]), s["ss_sold_date_sk"]
            )
        for ret in tables["store_returns"]:
            triple = (
                ret["sr_customer_sk"],
                ret["sr_item_sk"],
                ret["sr_ticket_number"],
            )
            assert ret["sr_returned_date_sk"] >= earliest[triple]

    def test_customer_domain(self, tables):
        population = customer_population(1)
        assert all(
            0 <= s["ss_customer_sk"] < population for s in tables["store_sales"]
        )

    def test_half_of_catalog_correlated(self, tables):
        sale_pairs = {
            (s["ss_customer_sk"], s["ss_item_sk"]) for s in tables["store_sales"]
        }
        correlated = sum(
            1
            for c in tables["catalog_sales"]
            if (c["cs_bill_customer_sk"], c["cs_item_sk"]) in sale_pairs
        )
        assert correlated >= len(tables["catalog_sales"]) / 2

    def test_deterministic(self):
        assert generate(10, seed=3) == generate(10, seed=3)

    def test_real_counts(self):
        real = real_row_counts(1000)
        assert real["store_sales"] == 2_880_000_000
        assert real["date_dim"] == 73_049


class TestLoadInto:
    def test_scales(self):
        session = Session()
        get_workload("tpcds", 100).load_into(session)
        ss = session.datasets.get("store_sales")
        assert ss.scale == pytest.approx(288_000_000 / 6000)
        assert session.datasets.get("date_dim").scale == pytest.approx(
            73_049 / CALENDAR_DAYS
        )


class TestQueries:
    def test_q17_shape(self):
        query = query_17()
        assert len(query.tables) == 8
        assert query.join_count() == 7
        # date_dim appears three times under different aliases
        assert sum(1 for t in query.tables if t.dataset == "date_dim") == 3
        # the fact-to-fact join has three conjuncts
        assert sum(set(c.aliases()) == {"ss", "sr"} for c in query.joins) == 3
        assert query.group_by and query.limit == 100

    def test_q50_shape(self):
        query = query_50()
        assert len(query.tables) == 5
        assert query.join_count() == 4

    def test_q50_parameters_bound(self):
        query = query_50(moy=10, year=1999)
        assert query.parameters == {"moy": 10, "year": 1999}
        d1_predicates = query.predicates_for("d1")
        assert all(p.is_complex for p in d1_predicates)
