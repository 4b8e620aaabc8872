"""JOB/IMDB-style workload: string-keyed many-way joins with tunable skew."""

from repro.workloads.job.generator import (
    create_secondary_indexes,
    generate,
    hot_title_count,
    scale_unit,
    zipf_picker,
)
from repro.workloads.job.queries import query_j1, query_j2, query_j3
from repro.workloads.job.schema import SCHEMAS, real_row_counts, row_counts

__all__ = [
    "SCHEMAS",
    "create_secondary_indexes",
    "generate",
    "hot_title_count",
    "query_j1",
    "query_j2",
    "query_j3",
    "real_row_counts",
    "row_counts",
    "scale_unit",
    "zipf_picker",
]
