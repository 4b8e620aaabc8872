"""Eager reference for per-field statistics collection.

``FieldStatistics.observe_column`` and ``StatisticsCollector.observe_rows``
as they stood while every batch — at ingestion and at query time alike — fed
the null count, the HLL and the GK sketch at once (784f379 / 041abe1). The
library queues what it observes and builds each on first read;
``test_on_read.py`` pins whatever it builds, whenever it builds it, to what
this builds. It shares the two sketch classes with the library and nothing
of ``repro.stats.collector`` (as ``tests/optimizers/reference_passes.py``
does for the planner passes); not importable from ``src/``.
"""

from __future__ import annotations

from repro.sketches.gk import GKQuantileSketch
from repro.sketches.hyperloglog import HyperLogLog


class EagerFieldStatistics:
    """Both sketches of one field, maintained on every observed batch."""

    def __init__(self, field_name: str) -> None:
        self.field_name = field_name
        self.quantiles = GKQuantileSketch()
        self.distinct = HyperLogLog()
        self.null_count = 0

    def observe_column(self, values) -> None:
        present = [value for value in values if value is not None]
        self.null_count += len(values) - len(present)
        if not present:
            return
        self.distinct.extend(present)
        kinds = set(map(type, present))
        numeric = tuple(kind for kind in kinds if issubclass(kind, (int, float)))
        if len(numeric) == len(kinds):
            self.quantiles.extend(list(map(float, present)))
        elif numeric:
            self.quantiles.extend([float(v) for v in present if isinstance(v, numeric)])

    def to_state(self) -> dict:
        return {
            "field_name": self.field_name,
            "null_count": self.null_count,
            "quantiles": self.quantiles.to_state(),
            "distinct": self.distinct.to_state(),
        }


def pivot_rows(rows, names) -> dict[str, list]:
    """Row dicts to one value list per name, in row order (absent reads None)."""
    return {name: [row.get(name) for row in rows] for name in names}


class EagerCollector:
    """Per-field eager sketches plus the row count of one dataset."""

    def __init__(self, tracked_fields) -> None:
        self.fields = {name: EagerFieldStatistics(name) for name in tracked_fields}
        self.row_count = 0

    def observe_rows(self, rows) -> None:
        rows = list(rows)
        self.row_count += len(rows)
        for name, column in pivot_rows(rows, self.fields).items():
            self.fields[name].observe_column(column)


def eager_state(field_name: str, batches) -> dict:
    """``to_state()`` after eagerly observing ``batches`` in order."""
    reference = EagerFieldStatistics(field_name)
    for batch in batches:
        reference.observe_column(batch)
    return reference.to_state()
