"""Streaming statistics collection over rows.

The Sink operator (Section 6.3) materializes intermediate data "while also
gathering statistics on them"; ingestion (Section 7, experimental setup)
gathers the same statistics upfront during loading. Both paths use this
collector: for each tracked field it maintains a GK quantile sketch and a
HyperLogLog sketch (Section 4: "the gathering of these two statistical types
happens in parallel"). At ingestion both are fed at once; at query time,
where formula (1) reads only the latter, the former is fed on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sketches.gk import GKQuantileSketch
from repro.sketches.histogram import EquiHeightHistogram
from repro.sketches.hyperloglog import HyperLogLog


def _numeric_floats(values) -> list[float]:
    """The ints and floats of ``values`` (bools too: ``isinstance``), as floats."""
    kinds = set(map(type, values))
    numeric = tuple(kind for kind in kinds if issubclass(kind, (int, float)))
    if len(numeric) == len(kinds):
        return list(map(float, values))
    return [float(v) for v in values if isinstance(v, numeric)] if numeric else []


@dataclass
class FieldStatistics:
    """Sketches collected for one field of one dataset.

    Null count and HLL are always current; the GK sketch is fed at once by
    :meth:`observe_column`, on first read of :attr:`quantiles` by
    :meth:`observe_batches` — same values, same order, same state (DESIGN.md §5c).
    """

    field_name: str
    distinct: HyperLogLog = field(default_factory=HyperLogLog)
    null_count: int = 0
    _quantiles: GKQuantileSketch = field(
        default_factory=GKQuantileSketch, init=False, repr=False
    )
    #: what :meth:`observe_batches` kept and the GK sketch has yet to see
    _unread: list = field(default_factory=list, init=False, repr=False)

    def observe_column(self, values) -> None:
        """Feed one batch of this field's values, in row order.

        Nulls are counted, the rest goes to the HLL, ints and floats also to
        the GK sketch: state depends on the value sequence, never its batching.
        """
        present = [value for value in values if value is not None]
        self.null_count += len(values) - len(present)
        if present:
            self.distinct.extend(present)
            self.quantiles.extend(_numeric_floats(present))

    def observe_batches(self, batches, replay=None) -> None:
        """:meth:`observe_column` of each of ``batches`` (one stored tuple
        per partition, say), with the GK sketch fed only if it is ever read.

        A distinct value is digested once however many batches hold it.
        ``batches`` is kept by reference for that read — hand over what is
        alive anyway, or pass a re-iterable ``replay`` of a transient copy.
        """
        present = [v for batch in batches for v in batch if v is not None]
        self.null_count += sum(map(len, batches)) - len(present)
        if present:
            self.distinct.extend(present)
            self._unread.append(batches if replay is None else replay)

    @property
    def quantiles(self) -> GKQuantileSketch:
        """The GK sketch over every numeric value observed so far."""
        while self._unread:
            for batch in self._unread.pop(0):
                self._quantiles.extend(_numeric_floats(batch))
        return self._quantiles

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
        merged._quantiles = self.quantiles.merge(other.quantiles)
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
        restored._quantiles = GKQuantileSketch.from_state(state["quantiles"])
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
        """Observe ``length`` rows held as columns, each a re-iterable of
        value batches (:meth:`FieldStatistics.observe_batches`) — the
        query-time entry point (Sink, pilot samples, policy refresh)."""
        self.row_count += length
        for name, stats in self.fields.items():
            batches = columns.get(name)
            if batches is None:
                stats.null_count += length
            else:
                stats.observe_batches(batches)

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
