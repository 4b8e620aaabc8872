"""Statistics collection framework (Section 4) and cardinality estimation."""

from repro.stats.catalog import DatasetStatistics, StatisticsCatalog
from repro.stats.collector import FieldStatistics, StatisticsCollector
from repro.stats.estimation import (
    DEFAULT_EQUALITY_SELECTIVITY,
    DEFAULT_INEQUALITY_SELECTIVITY,
    conjunctive_selectivity,
    default_selectivity,
    filtered_cardinality,
    join_cardinality,
    predicate_selectivity,
)

__all__ = [
    "DEFAULT_EQUALITY_SELECTIVITY",
    "DEFAULT_INEQUALITY_SELECTIVITY",
    "DatasetStatistics",
    "FieldStatistics",
    "StatisticsCatalog",
    "StatisticsCollector",
    "conjunctive_selectivity",
    "default_selectivity",
    "filtered_cardinality",
    "join_cardinality",
    "predicate_selectivity",
]
