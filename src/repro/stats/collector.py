"""Streaming statistics collection over rows.

The Sink operator (Section 6.3) materializes intermediate data "while also
gathering statistics on them"; ingestion (Section 7, experimental setup)
gathers the same statistics upfront during loading. Both paths use this
collector: for each tracked field it maintains a GK quantile sketch and a
HyperLogLog sketch (Section 4: "the gathering of these two statistical types
happens in parallel"). Both queue what they observe and a sketch is built
on first read: ingestion reads nothing, query-time collection reads the HLL
formula (1) needs inside the pass that is charged for it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.common.types import field_values
from repro.sketches.gk import GKQuantileSketch
from repro.sketches.histogram import EquiHeightHistogram
from repro.sketches.hyperloglog import HyperLogLog


def _numeric_floats(values: Iterable) -> list[float]:
    """The ints and floats of ``values`` (bools too: ``isinstance``), as floats."""
    kinds = set(map(type, values))
    numeric = tuple(kind for kind in kinds if issubclass(kind, (int, float)))
    if len(numeric) == len(kinds):
        return list(map(float, values))
    return [float(v) for v in values if isinstance(v, numeric)] if numeric else []


class _RowsColumn:
    """One field of a snapshot of row dicts as one batch, pivoted anew at
    every iteration, in row order (absent reads None)."""

    def __init__(self, rows: tuple[dict, ...], name: str) -> None:
        self.rows, self.name = rows, name

    def __iter__(self) -> Iterator[list]:
        yield field_values(self.rows, self.name)


@dataclass
class FieldStatistics:
    """Sketches collected for one field of one dataset.

    :meth:`observe_batches` only queues; null count and HLL are built on
    first read of either, the GK sketch on first read of :attr:`quantiles` —
    same values, same order, the state feeding all three at once would leave
    (DESIGN.md §5c).
    """

    field_name: str
    _distinct: HyperLogLog = field(default_factory=HyperLogLog, init=False, repr=False)
    _null_count: int = field(default=0, init=False, repr=False)
    _quantiles: GKQuantileSketch = field(
        default_factory=GKQuantileSketch, init=False, repr=False
    )
    #: queued, and the null count + HLL / the GK sketch have yet to see it
    _uncounted: list = field(default_factory=list, init=False, repr=False)
    _unread: list = field(default_factory=list, init=False, repr=False)

    def observe_batches(self, batches: Iterable, replay: Iterable | None = None) -> None:
        """Queue this field's next values: a re-iterable of value batches in
        row order (one stored tuple per partition, say), digested on read.

        ``batches`` is kept by reference until read — hand over what is alive
        anyway, or :meth:`digest` at once and pass a re-iterable ``replay``
        of a transient copy for the GK sketch.
        """
        self._uncounted.append(batches)
        self._unread.append(batches if replay is None else replay)

    def digest(self) -> None:
        """Fold what is queued into the null count and the HLL, now.

        Query-time collection calls this where it queues: the pass owes the
        digests, not the planner's first read. One ``extend`` per source, so
        a distinct value is digested once however many batches hold it.
        """
        while self._uncounted:
            batches = list(self._uncounted.pop(0))
            present = [v for batch in batches for v in batch if v is not None]
            self._null_count += sum(map(len, batches)) - len(present)
            if present:
                self._distinct.extend(present)

    @property
    def null_count(self) -> int:
        """Null (or absent) values observed so far."""
        self.digest()
        return self._null_count

    @property
    def distinct(self) -> HyperLogLog:
        """The HLL sketch over every non-null value observed so far."""
        self.digest()
        return self._distinct

    @property
    def quantiles(self) -> GKQuantileSketch:
        """The GK sketch over every numeric value observed so far."""
        while self._unread:
            for batch in self._unread.pop(0):
                self._quantiles.extend(_numeric_floats(batch))
        return self._quantiles

    def adopt(self, other: FieldStatistics) -> None:
        """Describe what ``other`` does: its null count and HLL as of now,
        its GK sketch built or not — shared, never forced."""
        self._distinct, self._null_count = other.distinct, other.null_count
        self._quantiles, self._unread = other._quantiles, other._unread

    @property
    def nbytes(self) -> int:
        """Bytes the sketches hold: the HLL's registers plus the GK entries
        built so far — a GK sketch never read counts as empty, and this
        builds none."""
        return self.distinct.nbytes + self._quantiles.nbytes

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
        merged._distinct = self.distinct.merge(other.distinct)
        merged._null_count = self.null_count + other.null_count
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
        restored._null_count = int(state["null_count"])
        restored._quantiles = GKQuantileSketch.from_state(state["quantiles"])
        restored._distinct = HyperLogLog.from_state(state["distinct"])
        return restored

    def built_state(self) -> dict:
        """The halves :meth:`to_state` would write that are built already —
        null count with HLL once nothing is uncounted, the GK sketch once
        nothing is unread — and builds neither."""
        state: dict = {"field_name": self.field_name}
        if not self._uncounted:
            state["null_count"] = self._null_count
            state["distinct"] = self._distinct.to_state()
        if not self._unread:
            state["quantiles"] = self._quantiles.to_state()
        return state

    def adopt_state(self, state: dict) -> None:
        """Take each half a :meth:`built_state` holds instead of building it
        from the queue, which that half then drops; a half the state lacks
        stays queued, to be built on first read."""
        if "distinct" in state:
            self._distinct = HyperLogLog.from_state(state["distinct"])
            self._null_count = int(state["null_count"])
            self._uncounted = []
        if "quantiles" in state:
            self._quantiles = GKQuantileSketch.from_state(state["quantiles"])
            self._unread = []


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

    def observe_rows(self, rows: Iterable[dict]) -> None:
        """Observe a batch of row dicts — the ingestion entry point.

        Counts the rows and queues, per tracked field, a pivot of one shared
        snapshot of them (in ingestion order, which GK state depends on),
        released as the fields are read: a tuple, not the caller's list,
        which a later ``clear()`` would empty under every sketch not yet built.
        """
        rows = tuple(rows)
        self.row_count += len(rows)
        for name, stats in self.fields.items():
            stats.observe_batches(_RowsColumn(rows, name))

    def observe_columns(self, columns: dict[str, Sequence], length: int) -> None:
        """Observe ``length`` rows held as columns, one flat sequence per
        field (queued as one batch: :meth:`FieldStatistics.observe_batches`)
        — the query-time entry point (Sink, pilot samples, policy refresh),
        which brings null counts and HLLs up to date before it returns."""
        self.row_count += length
        for name, stats in self.fields.items():
            column = columns.get(name)
            stats.observe_batches(((None,) * length if column is None else column,))
            stats.digest()

    def field(self, name: str) -> FieldStatistics:
        return self.fields[name]
