"""Session facade tests."""

import pytest

from repro.common.errors import OptimizationError
from repro.common.types import DataType, Schema
from repro.session import Session
from repro.spec import PlannerSpec

from tests.conftest import build_star_session, star_query


class TestSession:
    def test_optimizer_names(self):
        names = Session().optimizer_names()
        assert "dynamic" in names and "predicate_transfer" in names
        assert len(names) == 10

    def test_dataset_rows(self):
        session = build_star_session()
        assert session.dataset_rows("fact") == 2000

    def test_execute_unknown_optimizer(self):
        session = build_star_session()
        with pytest.raises(OptimizationError):
            session.execute(star_query(), "nope")

    def test_create_index_enables_inl(self):
        session = build_star_session()
        session.create_index("fact", "f_a")
        assert session.datasets.get("fact").has_index("f_a")

    def test_reset_intermediates_removes_stats_too(self):
        session = build_star_session()
        session.execute(star_query(), "dynamic")
        session.reset_intermediates()
        leftovers = [n for n in session.statistics.names() if n.startswith("__")]
        assert leftovers == []

    def test_load_rejects_duplicates(self):
        session = Session()
        schema = Schema.of(("x", DataType.INT))
        session.load("t", schema, [])
        from repro.common.errors import CatalogError

        with pytest.raises(CatalogError):
            session.load("t", schema, [])

    def test_execute_forwards_options(self):
        session = build_star_session()
        session.create_index("fact", "f_a")
        result = session.execute(
            star_query(), PlannerSpec.of("dynamic", inl_enabled=True)
        )
        session.reset_intermediates()
        assert result.rows is not None
