"""Partitioned storage: datasets, secondary indexes, ingestion, catalog."""

from repro.storage.catalog import DatasetCatalog
from repro.storage.dataset import Dataset, partition_rows
from repro.storage.index import SecondaryIndex
from repro.storage.ingest import load_dataset, register_intermediate

__all__ = [
    "Dataset",
    "DatasetCatalog",
    "SecondaryIndex",
    "load_dataset",
    "partition_rows",
    "register_intermediate",
]
