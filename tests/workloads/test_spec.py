"""WorkloadSpec registry tests: uniform access, identity, knob validation."""

import math

import pytest

from repro.common.errors import CatalogError
from repro.lang.ast import Query
from repro.session import Session
from repro.workloads import (
    WorkloadSpec,
    available_workloads,
    get_workload,
    job,
    tpcds,
    tpch,
)


class TestRegistry:
    def test_available_workloads(self):
        assert available_workloads() == ("job", "tpcds", "tpch")

    def test_unknown_workload_rejected(self):
        with pytest.raises(CatalogError):
            get_workload("imdb", 10)

    def test_direct_construction_rejected(self):
        with pytest.raises(CatalogError):
            WorkloadSpec(name="tpch", scale_factor=10)

    def test_bad_scale_rejected_eagerly(self):
        with pytest.raises(ValueError):
            get_workload("tpch", 15)

    def test_specs_hashable_and_compare_by_value(self):
        a = get_workload("job", 10)
        b = get_workload("job", 10)
        assert a == b and hash(a) == hash(b)
        assert a != get_workload("job", 10, skew=1.3)
        assert len({a, b}) == 1

    @pytest.mark.parametrize(
        "knobs",
        [
            {"correlation": 1.5},
            {"correlation": -0.1},
            {"correlation": math.nan},
            {"skew": -0.5},
            {"skew": math.nan},
            {"skew": math.inf},
        ],
    )
    def test_out_of_range_knobs_rejected(self, knobs):
        with pytest.raises(CatalogError):
            get_workload("job", 10, **knobs)

    @pytest.mark.parametrize("name", ["tpch", "tpcds"])
    @pytest.mark.parametrize("knobs", [{"skew": 1.3}, {"correlation": 0.9}])
    def test_tpc_workloads_take_no_knobs(self, name, knobs):
        with pytest.raises(CatalogError, match="only 'job'"):
            get_workload(name, 10, **knobs)

    def test_knob_bounds_are_accepted(self):
        assert get_workload("job", 10, skew=0.0, correlation=1.0).correlation == 1.0

    def test_equal_specs_generate_equal_rows(self):
        """An int knob names the same universe as its float spelling: equal
        specs share one cached session in the bench, so they must generate
        the same rows."""
        as_int = get_workload("job", 10, skew=1, correlation=0)
        as_float = get_workload("job", 10, skew=1.0, correlation=0.0)
        assert as_int == as_float
        assert as_int.generate() == as_float.generate()


class TestUniformSurface:
    def test_query_suites(self):
        assert sorted(get_workload("tpch", 10).queries) == ["Q8", "Q9"]
        assert sorted(get_workload("tpcds", 10).queries) == ["Q17", "Q50"]
        assert sorted(get_workload("job", 10).queries) == ["J1", "J2", "J3"]

    def test_query_builds(self):
        assert isinstance(get_workload("job", 10).query("J2"), Query)

    def test_unknown_query_label(self):
        with pytest.raises(CatalogError):
            get_workload("tpch", 10).query("J1")

    def test_schemas_exposed(self):
        assert "lineitem" in get_workload("tpch", 10).schemas
        assert "cast_info" in get_workload("job", 10).schemas


class TestZeroKnobIdentity:
    """Knobs at their defaults are the identity: WorkloadSpec generation is
    byte-identical to the legacy per-module entry points, so migrating the
    bench cache to specs changed nothing about the stock universes."""

    def test_tpch(self):
        assert get_workload("tpch", 10).generate() == tpch.generate(10)

    def test_tpcds(self):
        assert get_workload("tpcds", 10).generate() == tpcds.generate(10)

    def test_job(self):
        assert get_workload("job", 10).generate() == job.generate(10)


class TestAdversarialKnobs:
    def test_deterministic(self):
        spec = get_workload("job", 10, skew=1.3, correlation=0.9)
        assert spec.generate() == spec.generate()


class TestLoadInto:
    def test_secondary_indexes(self):
        session = Session()
        spec = get_workload("job", 10)
        spec.load_into(session)
        spec.create_secondary_indexes(session)
        assert session.datasets.get("cast_info").has_index("ci_movie")
