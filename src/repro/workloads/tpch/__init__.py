"""TPC-H style workload (queries 8 and 9, modified per the paper)."""

from repro.workloads.tpch.generator import (
    create_secondary_indexes,
    generate,
    scale_unit,
)
from repro.workloads.tpch.queries import query_8, query_9
from repro.workloads.tpch.schema import SCHEMAS, row_counts

__all__ = [
    "SCHEMAS",
    "create_secondary_indexes",
    "generate",
    "query_8",
    "query_9",
    "row_counts",
    "scale_unit",
]
