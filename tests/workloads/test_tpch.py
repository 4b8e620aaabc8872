"""TPC-H workload generator and query tests."""

import pytest

from repro.session import Session
from repro.workloads import get_workload
from repro.workloads.tpch import generate, query_8, query_9, scale_unit
from repro.workloads.tpch.generator import FINISHED_CUTOFF_DAY
from repro.workloads.tpch.schema import SCHEMAS, real_row_counts, row_counts


@pytest.fixture(scope="module")
def tables():
    return generate(10)


class TestScale:
    def test_scale_unit(self):
        assert scale_unit(10) == 1
        assert scale_unit(1000) == 100

    def test_bad_scale_factor(self):
        for bad in (5, 15, 0):
            with pytest.raises(ValueError):
                scale_unit(bad)

    def test_row_counts_ratio(self):
        small, big = row_counts(1), row_counts(10)
        for table in ("lineitem", "orders", "part"):
            assert big[table] == 10 * small[table]
        assert big["nation"] == small["nation"] == 25

    def test_real_counts_standard_populations(self):
        real = real_row_counts(100)
        assert real["lineitem"] == 600_000_000
        assert real["orders"] == 150_000_000
        assert real["nation"] == 25


class TestGeneratedData:
    def test_counts_match_schema_module(self, tables):
        counts = row_counts(1)
        for name, rows in tables.items():
            assert len(rows) == counts[name]

    def test_rows_match_schemas(self, tables):
        for name, rows in tables.items():
            fields = set(SCHEMAS[name].field_names)
            for row in rows[:20]:
                assert set(row) == fields

    def test_foreign_keys_resolve(self, tables):
        nation_keys = {n["n_nationkey"] for n in tables["nation"]}
        assert all(s["s_nationkey"] in nation_keys for s in tables["supplier"])
        assert all(c["c_nationkey"] in nation_keys for c in tables["customer"])
        order_keys = {o["o_orderkey"] for o in tables["orders"]}
        assert all(l["l_orderkey"] in order_keys for l in tables["lineitem"])

    def test_lineitem_part_supplier_pairs_valid(self, tables):
        pairs = {(p["ps_partkey"], p["ps_suppkey"]) for p in tables["partsupp"]}
        assert all(
            (l["l_partkey"], l["l_suppkey"]) in pairs for l in tables["lineitem"]
        )

    def test_order_status_correlated_with_date(self, tables):
        for order in tables["orders"]:
            if order["o_orderdate"] < FINISHED_CUTOFF_DAY:
                assert order["o_orderstatus"] == "F"
            else:
                assert order["o_orderstatus"] in ("O", "P")

    def test_brand_selectivity_about_one_fiftieth(self):
        parts = generate(100)["part"]
        hits = sum(1 for p in parts if p["p_brand"] == "Brand#3")
        assert hits == pytest.approx(len(parts) / 50, rel=0.6)

    def test_deterministic(self):
        assert generate(10, seed=5) == generate(10, seed=5)

    def test_seed_changes_data(self):
        assert generate(10, seed=5) != generate(10, seed=6)


class TestLoadInto:
    def test_scales_assigned(self):
        session = Session()
        get_workload("tpch", 10).load_into(session)
        lineitem = session.datasets.get("lineitem")
        assert lineitem.scale == pytest.approx(60_000_000 / 600)
        assert session.datasets.get("nation").scale == 1.0
        assert session.statistics.get("lineitem").scale == lineitem.scale


class TestQueries:
    def test_q8_shape(self):
        query = query_8()
        assert len(query.tables) == 8
        assert query.join_count() == 7
        # two (correlated) predicates on orders -> pushdown candidate
        assert len(query.predicates_for("o")) == 2

    def test_q9_shape(self):
        query = query_9()
        assert len(query.tables) == 6
        assert query.join_count() == 5
        # the composite fact-to-fact join l ⋈ ps has two conjuncts
        assert sum(set(c.aliases()) == {"ps", "l"} for c in query.joins) == 2

    def test_q9_udfs_are_complex(self):
        query = query_9()
        assert all(p.is_complex for p in query.predicates)
