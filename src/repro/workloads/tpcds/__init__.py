"""TPC-DS style workload (queries 17 and 50, modified per the paper)."""

from repro.workloads.tpcds.generator import (
    create_secondary_indexes,
    generate,
    scale_unit,
)
from repro.workloads.tpcds.queries import query_17, query_50
from repro.workloads.tpcds.schema import SCHEMAS, customer_population, row_counts

__all__ = [
    "SCHEMAS",
    "create_secondary_indexes",
    "customer_population",
    "generate",
    "query_17",
    "query_50",
    "row_counts",
    "scale_unit",
]
