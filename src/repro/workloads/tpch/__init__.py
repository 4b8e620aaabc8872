"""TPC-H style workload (queries 8 and 9, modified per the paper)."""

from repro.workloads.tpch.generator import (
    create_secondary_indexes,
    generate,
    scale_unit,
)
from repro.workloads.tpch.queries import query_8, query_9

__all__ = [
    "create_secondary_indexes",
    "generate",
    "query_8",
    "query_9",
    "scale_unit",
]
