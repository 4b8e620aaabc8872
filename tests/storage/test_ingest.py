"""Ingestion and catalog tests."""

import pytest

from repro.cluster.config import default_cluster
from repro.common.errors import CatalogError
from repro.common.types import DataType, Schema
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog
from repro.storage.ingest import load_dataset, register_intermediate

SCHEMA = Schema.of(("id", DataType.INT), ("v", DataType.INT), primary_key=("id",))


def setup():
    return default_cluster(), DatasetCatalog(), StatisticsCatalog()


def load(n=100, scale=1.0):
    cluster, datasets, statistics = setup()
    rows = [{"id": i, "v": i % 7} for i in range(n)]
    dataset = load_dataset("t", SCHEMA, rows, cluster, datasets, statistics, scale=scale)
    return dataset, datasets, statistics


class TestLoadDataset:
    def test_partition_count_matches_cluster(self):
        dataset, _, _ = load()
        assert dataset.partition_count == default_cluster().partitions

    def test_statistics_registered(self):
        _, _, statistics = load(200)
        stats = statistics.get("t")
        assert stats.row_count == 200
        assert abs(stats.distinct_count("v") - 7) <= 1

    def test_scale_threaded_through(self):
        dataset, _, statistics = load(scale=50.0)
        assert dataset.scale == 50.0
        assert statistics.get("t").scale == 50.0

    def test_partitioned_on_primary_key(self):
        dataset, _, _ = load()
        assert dataset.partition_key == "id"

    def test_duplicate_name_rejected(self):
        cluster, datasets, statistics = setup()
        load_dataset("t", SCHEMA, [], cluster, datasets, statistics)
        with pytest.raises(CatalogError):
            load_dataset("t", SCHEMA, [], cluster, datasets, statistics)


class TestIntermediates:
    def test_register_and_replace(self):
        _, datasets, _ = load()
        inter = register_intermediate(
            "i1", SCHEMA, [[{"id": 1, "v": 2}]], "id", datasets, scale=3.0
        )
        assert inter.is_intermediate
        assert inter.scale == 3.0
        register_intermediate("i1", SCHEMA, [[]], None, datasets)
        assert datasets.get("i1").row_count == 0

    def test_drop_intermediates(self):
        _, datasets, _ = load()
        register_intermediate("i1", SCHEMA, [[]], None, datasets)
        register_intermediate("i2", SCHEMA, [[]], None, datasets)
        dropped = datasets.drop_intermediates()
        assert sorted(dropped) == ["i1", "i2"]
        assert datasets.has("t")


class TestDatasetCatalog:
    def test_get_missing_raises(self):
        with pytest.raises(CatalogError):
            DatasetCatalog().get("nope")

    def test_schema_lookup(self):
        _, datasets, _ = load()
        assert datasets.schema_lookup("t") is SCHEMA

    def test_drop(self):
        _, datasets, _ = load()
        datasets.drop("t")
        assert not datasets.has("t")

    def test_names(self):
        _, datasets, _ = load()
        assert datasets.names() == ["t"]
