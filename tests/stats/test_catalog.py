"""Statistics catalog tests."""

import pytest

from repro.common.errors import CatalogError
from repro.stats.catalog import DatasetStatistics, StatisticsCatalog
from repro.stats.collector import StatisticsCollector


def entry(name="t", rows=100, width=40, scale=1.0):
    return DatasetStatistics(name=name, row_count=rows, row_width=width, scale=scale)


class TestDatasetStatistics:
    def test_byte_size(self):
        assert entry(rows=10, width=8).byte_size == 80

    def test_distinct_fallback_is_row_count(self):
        assert entry(rows=50).distinct_count("missing") == 50

    def test_distinct_capped_by_rows(self):
        collector = StatisticsCollector(["k"])
        for i in range(100):
            collector.observe_rows([{"k": i}])
        stats = DatasetStatistics("t", 10, 40, dict(collector.fields))
        assert stats.distinct_count("k") <= 10

    def test_distinct_from_sketch(self):
        collector = StatisticsCollector(["k"])
        for i in range(1000):
            collector.observe_rows([{"k": i % 25}])
        stats = DatasetStatistics("t", 1000, 40, dict(collector.fields))
        assert abs(stats.distinct_count("k") - 25) <= 2


class TestCatalog:
    def test_register_get(self):
        catalog = StatisticsCatalog()
        catalog.register(entry())
        assert catalog.get("t").row_count == 100

    def test_missing_raises(self):
        with pytest.raises(CatalogError):
            StatisticsCatalog().get("nope")

    def test_has_and_remove(self):
        catalog = StatisticsCatalog()
        catalog.register(entry())
        assert catalog.has("t")
        catalog.remove("t")
        assert not catalog.has("t")

    def test_remove_missing_is_noop(self):
        StatisticsCatalog().remove("ghost")

    def test_names_sorted(self):
        catalog = StatisticsCatalog()
        catalog.register(entry("b"))
        catalog.register(entry("a"))
        assert catalog.names() == ["a", "b"]

    def test_copy_membership_independent(self):
        catalog = StatisticsCatalog()
        catalog.register(entry("t"))
        clone = catalog.copy()
        clone.register(entry("u"))
        assert not catalog.has("u")
        assert clone.has("t")

    def test_copy_shares_entries(self):
        catalog = StatisticsCatalog()
        catalog.register(entry("t"))
        assert catalog.copy().get("t") is catalog.get("t")

    def test_register_from_collector_scale(self):
        catalog = StatisticsCatalog()
        collector = StatisticsCollector(["a"])
        collector.observe_rows([{"a": 1}])
        stats = catalog.register_from_collector("t", collector, 40, scale=100.0)
        assert stats.scale == 100.0
        assert stats.row_count == 1
