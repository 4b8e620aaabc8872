"""Statistics catalog: per-dataset row counts and per-field sketches.

The catalog is the optimizer's window onto the data. It is populated at
ingestion time for base datasets and *updated* at every re-optimization point:
pushed-down predicates replace a base dataset's entry with post-filter
statistics (Section 5.1) and each materialized join result registers a fresh
entry (Section 5.3, "Online Statistics").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.common.errors import CatalogError
from repro.stats.collector import FieldStatistics, StatisticsCollector


@dataclass
class DatasetStatistics:
    """Everything the cost model knows about one (base or intermediate) dataset."""

    name: str
    row_count: float
    row_width: int
    fields: dict[str, FieldStatistics] = field(default_factory=dict)
    #: True when ``row_count`` already reflects the alias's local predicates
    #: (pilot-run sample estimates) — estimation must not re-apply them.
    predicates_applied: bool = False
    #: Modeled full-scale rows per stored row (see Dataset.scale).
    scale: float = 1.0

    @property
    def byte_size(self) -> float:
        return self.row_count * self.row_width

    def distinct_count(self, field_name: str) -> float:
        """U(x.k) from formula (1); falls back to row count when unsketched.

        The row-count fallback corresponds to assuming the attribute is a key,
        which is the conservative choice for join-size estimation.
        """
        stats = self.fields.get(field_name)
        if stats is None or len(stats.distinct) == 0:
            return max(1.0, self.row_count)
        return min(stats.distinct_count, max(1.0, self.row_count))

    def field_statistics(self, field_name: str) -> FieldStatistics | None:
        return self.fields.get(field_name)

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable snapshot, every sketch built."""
        return self._state_with(FieldStatistics.to_state)

    def built_state(self) -> dict:
        """:meth:`to_state` holding only the sketches built so far
        (:meth:`FieldStatistics.built_state`) — what the service's sketch
        store persists."""
        return self._state_with(FieldStatistics.built_state)

    def _state_with(self, field_state: Callable[[FieldStatistics], dict]) -> dict:
        return {
            "name": self.name,
            "row_count": self.row_count,
            "row_width": self.row_width,
            "predicates_applied": self.predicates_applied,
            "scale": self.scale,
            "fields": {
                name: field_state(stats) for name, stats in sorted(self.fields.items())
            },
        }


class StatisticsCatalog:
    """Mutable registry of :class:`DatasetStatistics` keyed by dataset name."""

    def __init__(self) -> None:
        self._datasets: dict[str, DatasetStatistics] = {}

    def register(self, stats: DatasetStatistics) -> None:
        self._datasets[stats.name] = stats

    def register_from_collector(
        self,
        name: str,
        collector: StatisticsCollector,
        row_width: int,
        scale: float = 1.0,
    ) -> DatasetStatistics:
        """Create and register an entry from a finished collection pass."""
        stats = DatasetStatistics(
            name=name,
            row_count=collector.row_count,
            row_width=row_width,
            fields=dict(collector.fields),
            scale=scale,
        )
        self.register(stats)
        return stats

    def get(self, name: str) -> DatasetStatistics:
        try:
            return self._datasets[name]
        except KeyError:
            raise CatalogError(f"no statistics for dataset {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._datasets

    def remove(self, name: str) -> None:
        self._datasets.pop(name, None)

    def names(self) -> list[str]:
        return sorted(self._datasets)

    def copy(self) -> StatisticsCatalog:
        """Shallow copy: entries are shared, membership is independent.

        Optimizers that speculatively override entries (e.g. the static
        baseline applying default selectivities) copy the catalog first so the
        ground-truth entries stay intact.
        """
        clone = StatisticsCatalog()
        clone._datasets = dict(self._datasets)
        return clone
