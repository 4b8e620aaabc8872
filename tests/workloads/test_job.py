"""JOB-style workload: schema, generator knobs, and query-suite tests."""

from collections import Counter

import pytest

from repro.common.rng import derive
from repro.session import Session
from repro.workloads import get_workload
from repro.workloads.job import generate, query_j1, query_j2, query_j3, scale_unit
from repro.workloads.job.generator import (
    HOT_TITLE_FRACTION,
    hot_title_count,
    zipf_picker,
)
from repro.workloads.job.schema import (
    QUERY_YEAR_HIGH,
    QUERY_YEAR_LOW,
    SCHEMAS,
    real_row_counts,
    row_counts,
)


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
        for table in ("title", "cast_info", "movie_keyword"):
            assert big[table] == 10 * small[table]
        assert big["company"] == small["company"]
        assert big["keyword"] == small["keyword"]

    def test_real_counts(self):
        real = real_row_counts(10)
        assert real["cast_info"] > real["title"] > real["company"]


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

    def test_string_foreign_keys_resolve(self, tables):
        titles = {t["t_id"] for t in tables["title"]}
        names = {n["n_id"] for n in tables["name"]}
        companies = {c["co_id"] for c in tables["company"]}
        keywords = {k["k_id"] for k in tables["keyword"]}
        assert all(isinstance(t, str) for t in titles)
        assert all(ci["ci_movie"] in titles for ci in tables["cast_info"])
        assert all(ci["ci_person"] in names for ci in tables["cast_info"])
        assert all(mc["mc_movie"] in titles for mc in tables["movie_companies"])
        assert all(mc["mc_company"] in companies for mc in tables["movie_companies"])
        assert all(mk["mk_movie"] in titles for mk in tables["movie_keyword"])
        assert all(mk["mk_keyword"] in keywords for mk in tables["movie_keyword"])

    def test_deterministic(self):
        assert generate(10, seed=5) == generate(10, seed=5)
        assert generate(10, seed=5, skew=1.3, correlation=0.9) == generate(
            10, seed=5, skew=1.3, correlation=0.9
        )

    def test_seed_and_knobs_change_data(self):
        base = generate(10, seed=5)
        assert base != generate(10, seed=6)
        assert base != generate(10, seed=5, skew=1.3)
        assert base != generate(10, seed=5, correlation=0.9)


class TestSkewKnob:
    def test_zero_skew_spreads_references(self):
        cast_info = generate(10, skew=0.0)["cast_info"]
        top = Counter(ci["ci_movie"] for ci in cast_info).most_common(1)[0][1]
        assert top < len(cast_info) * 0.05

    def test_high_skew_concentrates_references(self):
        cast_info = generate(10, skew=1.3)["cast_info"]
        top = Counter(ci["ci_movie"] for ci in cast_info).most_common(1)[0][1]
        # the Zipf head alone owns a large share of the fact table
        assert top > len(cast_info) * 0.15

    def test_hot_title_count(self):
        titles = row_counts(scale_unit(10))["title"]
        assert hot_title_count(titles) == max(1, int(titles * HOT_TITLE_FRACTION))

    def test_zipf_picker_deterministic_and_bounded(self):
        picks = [zipf_picker(50, 1.1, derive(7, "zipf"))() for _ in range(200)]
        again = [zipf_picker(50, 1.1, derive(7, "zipf"))() for _ in range(200)]
        assert picks == again
        assert all(0 <= p < 50 for p in picks)


class TestCorrelationKnob:
    def test_correlation_funnels_facts_through_filters(self):
        """With correlation on, the hot (Zipf-head) titles carry exactly the
        attributes the J-queries filter on, so the filters keep a small
        fraction of titles but a large fraction of fact rows."""
        tables = generate(10, skew=1.3, correlation=0.9)
        titles = {t["t_id"]: t for t in tables["title"]}

        def passes(title_row):
            return (
                title_row["t_kind"] == "movie"
                and QUERY_YEAR_LOW <= title_row["t_year"] <= QUERY_YEAR_HIGH
            )

        passing_titles = sum(1 for t in titles.values() if passes(t))
        passing_facts = sum(
            1 for ci in tables["cast_info"] if passes(titles[ci["ci_movie"]])
        )
        title_fraction = passing_titles / len(titles)
        fact_fraction = passing_facts / len(tables["cast_info"])
        assert fact_fraction > 3 * title_fraction

    def test_zero_correlation_keeps_fractions_close(self):
        tables = generate(10, skew=0.0, correlation=0.0)
        titles = {t["t_id"]: t for t in tables["title"]}

        def passes(title_row):
            return (
                title_row["t_kind"] == "movie"
                and QUERY_YEAR_LOW <= title_row["t_year"] <= QUERY_YEAR_HIGH
            )

        title_fraction = sum(1 for t in titles.values() if passes(t)) / len(titles)
        fact_fraction = sum(
            1 for ci in tables["cast_info"] if passes(titles[ci["ci_movie"]])
        ) / len(tables["cast_info"])
        assert fact_fraction == pytest.approx(title_fraction, rel=0.5)


class TestLoadInto:
    def test_scales_assigned(self):
        session = Session()
        get_workload("job", 10).load_into(session)
        title = session.datasets.get("title")
        stored = row_counts(scale_unit(10))["title"]
        assert title.scale == pytest.approx(real_row_counts(10)["title"] / stored)
        assert session.statistics.get("title").scale == title.scale


class TestQueries:
    def test_j1_shape(self):
        query = query_j1()
        assert len(query.tables) == 6
        assert query.join_count() == 5

    def test_j2_shape(self):
        query = query_j2()
        assert len(query.tables) == 5
        assert query.join_count() == 4

    def test_j3_shape(self):
        query = query_j3()
        assert len(query.tables) == 7
        assert query.join_count() == 6
