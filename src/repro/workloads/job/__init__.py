"""JOB/IMDB-style workload: string-keyed many-way joins with tunable skew."""

from repro.workloads.job.generator import create_secondary_indexes, generate, scale_unit
from repro.workloads.job.queries import query_j1, query_j2, query_j3

__all__ = [
    "create_secondary_indexes",
    "generate",
    "query_j1",
    "query_j2",
    "query_j3",
    "scale_unit",
]
