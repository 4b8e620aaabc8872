"""TPC-DS style workload (queries 17 and 50, modified per the paper)."""

from repro.workloads.tpcds.generator import (
    create_secondary_indexes,
    generate,
    scale_unit,
)
from repro.workloads.tpcds.queries import query_17, query_50

__all__ = [
    "create_secondary_indexes",
    "generate",
    "query_17",
    "query_50",
    "scale_unit",
]
