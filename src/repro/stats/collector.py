"""Streaming statistics collection over rows.

The Sink operator (Section 6.3) materializes intermediate data "while also
gathering statistics on them"; ingestion (Section 7, experimental setup)
gathers the same statistics upfront during loading. Both paths use this
collector: for each tracked field it maintains a GK quantile sketch and a
HyperLogLog sketch in parallel (Section 4: "the gathering of these two
statistical types happens in parallel").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sketches.gk import GKQuantileSketch
from repro.sketches.histogram import EquiHeightHistogram
from repro.sketches.hyperloglog import HyperLogLog


@dataclass
class FieldStatistics:
    """Sketches collected for one field of one dataset."""

    field_name: str
    quantiles: GKQuantileSketch = field(default_factory=GKQuantileSketch)
    distinct: HyperLogLog = field(default_factory=HyperLogLog)
    null_count: int = 0

    def observe_column(self, values) -> None:
        """Feed one batch of this field's values, in row order.

        The single collection path: nulls are counted, every other value
        goes to the HLL, and ints/floats (bools included, by ``isinstance``)
        also go to the GK sketch as floats. Sketch state is a function of
        the value sequence alone, never of how it was batched.
        """
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

    @property
    def distinct_count(self) -> float:
        """HLL estimate of the number of distinct non-null values."""
        return max(1.0, self.distinct.cardinality())

    def histogram(self, bucket_count: int = 32) -> EquiHeightHistogram | None:
        """Equi-height histogram, or None for non-numeric fields.

        Built once per summary state: the planner asks for the same frozen
        field's histogram at every predicate of every candidate plan.
        """
        if len(self.quantiles) == 0:
            return None
        cache = self.quantiles.histogram_cache()
        histogram = cache.get(bucket_count)
        if histogram is None:
            histogram = cache[bucket_count] = EquiHeightHistogram.from_sketch(
                self.quantiles, bucket_count
            )
        return histogram

    def merge(self, other: FieldStatistics) -> FieldStatistics:
        merged = FieldStatistics(self.field_name)
        merged.quantiles = self.quantiles.merge(other.quantiles)
        merged.distinct = self.distinct.merge(other.distinct)
        merged.null_count = self.null_count + other.null_count
        return merged

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable snapshot of both sketches plus the null count."""
        return {
            "field_name": self.field_name,
            "null_count": self.null_count,
            "quantiles": self.quantiles.to_state(),
            "distinct": self.distinct.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> FieldStatistics:
        restored = cls(state["field_name"])
        restored.null_count = int(state["null_count"])
        restored.quantiles = GKQuantileSketch.from_state(state["quantiles"])
        restored.distinct = HyperLogLog.from_state(state["distinct"])
        return restored


def pivot_rows(rows, names) -> dict[str, list]:
    """Row dicts to one value list per name, in row order (absent reads None)."""
    return {name: [row.get(name) for row in rows] for name in names}


class StatisticsCollector:
    """Collects per-field sketches plus the row count for one dataset.

    Parameters
    ----------
    tracked_fields:
        The fields to sketch. At ingestion time this is "every field of a
        dataset that may participate in any query" (Section 4); for online
        statistics it is "only attributes that participate in subsequent join
        stages" (Section 5.3) — the caller decides.
    """

    def __init__(self, tracked_fields: list[str] | tuple[str, ...]) -> None:
        self.fields = {name: FieldStatistics(name) for name in tracked_fields}
        self.row_count = 0

    def observe_row(self, row: dict) -> None:
        self.observe_rows([row])

    def observe_rows(self, rows) -> None:
        """Observe a batch of row dicts — the ingestion entry point."""
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        self.row_count += len(rows)
        for name, column in pivot_rows(rows, self.fields).items():
            self.fields[name].observe_column(column)

    def observe_columns(self, columns: dict, length: int) -> None:
        """Observe a batch held as parallel columns of ``length`` rows — the
        query-time entry point (Sink, pilot samples, pre-filtering passes)."""
        self.row_count += length
        for name, stats in self.fields.items():
            column = columns.get(name)
            if column is None:
                stats.null_count += length
            else:
                stats.observe_column(column)

    @property
    def tracked_field_names(self) -> list[str]:
        return list(self.fields)

    def field(self, name: str) -> FieldStatistics:
        return self.fields[name]

    def sketch_cost_units(self) -> int:
        """Work units charged by the cost model for this collection pass.

        One unit per (row, tracked field): the extra time for statistics
        "depends on the number of attributes for which we need to keep
        statistics for" (Section 7.1).
        """
        return self.row_count * max(1, len(self.fields))
