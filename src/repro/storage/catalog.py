"""Dataset catalog: the storage-level registry of base and intermediate data.

The catalog owns datasets; the statistics catalog (``repro.stats``) owns what
the optimizer believes about them. They are registered together at ingestion
and at every re-optimization point's materialization.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.common.errors import CatalogError
from repro.common.types import Schema
from repro.storage.dataset import Dataset


class DatasetCatalog:
    """Name -> :class:`Dataset` registry with schema lookup for binding.

    Every *base* dataset carries a monotonically increasing version, bumped
    on (re-)ingestion. Versions give caches a cheap staleness check — a
    cached result tagged with the ``(name, version)`` pairs it depended on
    is valid iff every pair still matches — and :meth:`subscribe` lets them
    react to ingests eagerly. Intermediates (per-query materializations in
    ``__q<id>__`` namespaces) are not versioned: they churn constantly and
    are never a cache dependency themselves.

    ``pool`` is the value pool every base dataset's pivoted columns share
    (:meth:`Dataset.column`): one object per distinct exact ``int``/``str``
    value across the catalog's base data.
    """

    def __init__(self) -> None:
        self.pool: dict[object, object] = {}
        self._datasets: dict[str, Dataset] = {}
        self._versions: dict[str, int] = {}
        self._listeners: list[Callable[[str], None]] = []

    def register(self, dataset: Dataset) -> None:
        if dataset.name in self._datasets:
            raise CatalogError(f"dataset {dataset.name!r} already registered")
        self._datasets[dataset.name] = dataset
        self._bump(dataset)

    def replace(self, dataset: Dataset) -> None:
        """Register or overwrite (re-ingests and intermediates)."""
        self._datasets[dataset.name] = dataset
        self._bump(dataset)

    def _bump(self, dataset: Dataset) -> None:
        if dataset.is_intermediate:
            return
        self._versions[dataset.name] = self._versions.get(dataset.name, 0) + 1
        for listener in self._listeners:
            listener(dataset.name)

    def version(self, name: str) -> int:
        """Ingestion version of a base dataset (0 = never ingested)."""
        return self._versions.get(name, 0)

    def subscribe(self, listener: Callable[[str], None]) -> None:
        """Call ``listener(name)`` after every base-dataset (re-)ingest."""
        self._listeners.append(listener)

    def get(self, name: str) -> Dataset:
        try:
            return self._datasets[name]
        except KeyError:
            raise CatalogError(f"unknown dataset {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._datasets

    def drop(self, name: str) -> None:
        self._datasets.pop(name, None)

    def drop_intermediates(self) -> list[str]:
        """Remove all materialized intermediates (between experiment runs)."""
        doomed = [n for n, d in self._datasets.items() if d.is_intermediate]
        for name in doomed:
            del self._datasets[name]
        return doomed

    def names(self) -> list[str]:
        return sorted(self._datasets)

    def schema_lookup(self, name: str) -> Schema:
        """Schema accessor in the shape :mod:`repro.lang.binding` expects."""
        return self.get(name).schema
