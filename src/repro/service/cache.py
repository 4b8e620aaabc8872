"""Result and intermediate caches with ingest-driven invalidation.

Two caches, both LRU-bounded and both validated against
:class:`~repro.storage.catalog.DatasetCatalog` versions:

- The **result cache** answers a repeated query (same text, same bound
  parameters, same planner spec) at admission time without creating its
  driver: the scheduler's ``on_admit`` hook returns a manufactured
  :class:`~repro.engine.metrics.ExecutionResult` carrying the cached rows
  and *zero* metrics — a hit consumes no simulated cluster time.
- The **intermediate cache** replays materialized pushdown filters across
  queries: a :class:`~repro.engine.scheduler.request.JobRequest` whose
  ``cache_token`` matches a previously stored materialization re-registers
  the stored dataset and statistics under the requesting query's own
  namespace at zero cost, skipping the scan entirely. The token binds only
  the parameters the request's own predicates read. Each cacheable request
  is looked up once, when it becomes ready and before any launch sharing
  (one hit or one miss in :class:`CacheStats`); every executed one stores
  its materialization, solo or as a shared-launch branch; and an entry is
  served only after a job that produced it has completed on the shared
  clock (:meth:`ServiceCache.publish_intermediate`).

Both caches are bounded in bytes. Each entry's size is fixed when it is
stored, by a formula that does not depend on the interpreter: 8 bytes per
stored value (:func:`result_nbytes`), plus, for an intermediate, each
field's sketch bytes — HLL registers, 24 per GK entry
(:func:`intermediate_nbytes`). Storing evicts the cache's least-recently-used
entries until its held total is within its budget again, and an entry larger
than the whole budget is not stored.

Invalidation is two-layered: every entry records the ``(dataset, version)``
pairs it was computed from and is revalidated on fetch, and the owning
service subscribes the cache to the dataset catalog so a re-ingest evicts
dependents eagerly. The result cache keeps its own copies of the row dicts
and a hit hands out fresh copies of those, so what one consumer does to its
rows never reaches another's. An intermediate hit replays the Sink's stored
dataset itself under a new name — its column tuples and partition bounds
are shared, as immutable as the dataset.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.engine.metrics import ExecutionResult, JobMetrics
from repro.stats.catalog import DatasetStatistics
from repro.storage.ingest import register_intermediate

if TYPE_CHECKING:
    from repro.algebra.plan import PlanNode
    from repro.storage.dataset import Dataset


#: Bytes charged per stored value (one row of one kept column).
VALUE_BYTES = 8
#: Default byte budget of the intermediate cache.
INTERMEDIATE_BYTES = 4 << 20
#: Default byte budget of the result cache.
RESULT_BYTES = 1 << 20


def result_nbytes(rows: list[dict]) -> int:
    """What a result cache entry holds, by a fixed formula:
    :data:`VALUE_BYTES` per stored value, and one value's worth for an empty
    answer, so that every entry counts against the budget."""
    return VALUE_BYTES * max(1, sum(len(row) for row in rows))


def intermediate_nbytes(dataset: Dataset, stats: DatasetStatistics) -> int:
    """What an intermediate cache entry holds, by a fixed formula:
    :data:`VALUE_BYTES` per stored value plus every field's sketch bytes
    (:attr:`~repro.stats.collector.FieldStatistics.nbytes`)."""
    values = dataset.row_count * len(dataset.schema.fields)
    return VALUE_BYTES * values + sum(f.nbytes for f in stats.fields.values())


@dataclass
class CacheStats:
    """Counters for one service cache, plus the bytes each of its caches holds."""

    result_hits: int = 0
    result_misses: int = 0
    intermediate_hits: int = 0
    intermediate_misses: int = 0
    #: entries evicted because a dependency dataset was re-ingested (both
    #: eager subscription evictions and stale-on-fetch drops).
    invalidations: int = 0
    #: entries evicted to bring a cache's held bytes within its budget.
    evictions: int = 0
    #: entries not stored because they alone exceed their cache's budget.
    oversized: int = 0
    #: bytes the stored intermediates hold now (:func:`intermediate_nbytes`).
    held_bytes: int = 0
    #: bytes the stored results hold now (:func:`result_nbytes`).
    result_held_bytes: int = 0

    @property
    def result_hit_rate(self) -> float:
        lookups = self.result_hits + self.result_misses
        return self.result_hits / lookups if lookups else 0.0

    @property
    def intermediate_hit_rate(self) -> float:
        lookups = self.intermediate_hits + self.intermediate_misses
        return self.intermediate_hits / lookups if lookups else 0.0


@dataclass
class _CachedResult:
    """One stored query answer + the catalog versions it depends on."""

    #: the cache's own copies of the answer's row dicts
    rows: list[dict]
    plan: PlanNode
    deps: tuple[tuple[str, int], ...]
    #: size charged against the byte budget, fixed when stored.
    nbytes: int

    def materialize(self) -> ExecutionResult:
        """A fresh result object per hit, fresh row dicts included (the
        scheduler sets ``schedule`` on it, so sharing one object across hits
        would clobber records, and a caller may edit its rows)."""
        return ExecutionResult(
            rows=[dict(row) for row in self.rows],
            metrics=JobMetrics(),
            plan=self.plan,
            phases=["cache-hit"],
        )


@dataclass
class _CachedIntermediate:
    """One stored pushdown materialization, namespace-free."""

    #: the Sink's stored dataset, replayed under each hit's own name
    dataset: Dataset
    stats: DatasetStatistics
    deps: tuple[tuple[str, int], ...]
    #: size charged against the byte budget, fixed when stored.
    nbytes: int
    #: set once a job that produced this content has completed on the
    #: shared clock; until then a lookup is a miss. A flag, not a
    #: timestamp: ``reset_scheduler`` restarts the clock at zero.
    visible: bool = False


class _ReplayedData:
    """Stand-in for a replayed job's output data.

    The request runner only reads ``modeled_rows`` (estimate-accuracy
    recording); pushdown drivers consume the registered catalog entries,
    never the outcome payload, so a hit need not rebuild the operator data.
    """

    __slots__ = ("modeled_rows",)

    def __init__(self, modeled_rows: float) -> None:
        self.modeled_rows = modeled_rows


class ServiceCache:
    """LRU result + intermediate caches bound to one dataset catalog."""

    def __init__(
        self,
        datasets,
        result_bytes: int = RESULT_BYTES,
        intermediate_bytes: int = INTERMEDIATE_BYTES,
    ) -> None:
        if result_bytes < 1 or intermediate_bytes < 1:
            raise ValueError("cache capacities must be >= 1")
        self.datasets = datasets
        self.result_bytes = result_bytes
        self.intermediate_bytes = intermediate_bytes
        self.stats = CacheStats()
        self._results: OrderedDict[object, _CachedResult] = OrderedDict()
        self._intermediates: OrderedDict[str, _CachedIntermediate] = OrderedDict()

    # -- dependency versioning ------------------------------------------------

    def _deps_for(self, names: tuple[str, ...]) -> tuple[tuple[str, int], ...]:
        return tuple((name, self.datasets.version(name)) for name in sorted(names))

    def _fresh(self, deps: tuple[tuple[str, int], ...]) -> bool:
        return all(self.datasets.version(name) == version for name, version in deps)

    def invalidate_dataset(self, name: str) -> None:
        """Evict every entry computed from ``name`` (catalog listener)."""
        doomed = [k for k, e in self._results.items() if self._depends(e, name)]
        for key in doomed:
            self._drop_result(key)
        doomed_tokens = [
            t for t, e in self._intermediates.items() if self._depends(e, name)
        ]
        for token in doomed_tokens:
            self._drop_intermediate(token)
        self.stats.invalidations += len(doomed) + len(doomed_tokens)

    @staticmethod
    def _depends(entry, name: str) -> bool:
        return any(dep_name == name for dep_name, _ in entry.deps)

    # -- result cache ---------------------------------------------------------

    def lookup_result(self, key) -> ExecutionResult | None:
        """The cached answer for ``key``, revalidated against the catalog."""
        entry = self._results.get(key)
        if entry is None:
            self.stats.result_misses += 1
            return None
        if not self._fresh(entry.deps):
            self._drop_result(key)
            self.stats.invalidations += 1
            self.stats.result_misses += 1
            return None
        self._results.move_to_end(key)
        self.stats.result_hits += 1
        return entry.materialize()

    def store_result(
        self, key, result: ExecutionResult, datasets: tuple[str, ...]
    ) -> None:
        """Store ``result`` under ``key``, replacing any entry there, then
        evict least-recently-used results until the held bytes fit the
        budget; a result over the whole budget is not stored."""
        if key in self._results:
            self._drop_result(key)
        nbytes = result_nbytes(result.rows)
        if nbytes > self.result_bytes:
            self.stats.oversized += 1
            return
        self._results[key] = _CachedResult(
            rows=[dict(row) for row in result.rows],
            plan=result.plan,
            deps=self._deps_for(datasets),
            nbytes=nbytes,
        )
        self.stats.result_held_bytes += nbytes
        while self.stats.result_held_bytes > self.result_bytes:
            self._drop_result(next(iter(self._results)))
            self.stats.evictions += 1

    def _drop_result(self, key) -> None:
        self.stats.result_held_bytes -= self._results.pop(key).nbytes

    # -- intermediate (pushdown) cache ----------------------------------------

    def fetch_intermediate(self, executor, request):
        """Replay a stored materialization for ``request``, if visible and fresh.

        On a hit the stored columns are re-registered as an intermediate
        dataset under the request's own sink name, its statistics land in the
        run's working catalog, and the returned ``(data, metrics)`` pair
        charges nothing. Returns ``None`` on miss/stale, and while the job
        that stored the entry is still in flight.
        """
        token = request.cache_token
        entry = self._intermediates.get(token)
        if entry is None or not entry.visible:
            self.stats.intermediate_misses += 1
            return None
        if not self._fresh(entry.deps):
            self._drop_intermediate(token)
            self.stats.invalidations += 1
            self.stats.intermediate_misses += 1
            return None
        name = request.job.root.name
        dataset = entry.dataset
        register_intermediate(
            name=name,
            schema=dataset.schema,
            columns=dataset.columns,
            bounds=dataset.bounds,
            partition_key=dataset.partition_key,
            datasets=executor.datasets,
            scale=dataset.scale,
        )
        request.run.statistics.register(
            replace(entry.stats, name=name, fields=dict(entry.stats.fields))
        )
        self._intermediates.move_to_end(token)
        self.stats.intermediate_hits += 1
        return _ReplayedData(dataset.modeled_rows), JobMetrics()

    def store_intermediate(self, executor, request) -> None:
        """Capture the materialization the request's sink just registered.

        The entry stays hidden until :meth:`publish_intermediate`. A fresh
        entry already under the token holds the same content and is kept
        (a second producer must not hide a visible one); a stale one is
        replaced. Least-recently-used entries are evicted until the held
        bytes fit the budget; an entry over the whole budget is not stored.
        """
        token = request.cache_token
        base = request.batch_key
        deps = self._deps_for((base,)) if base is not None else ()
        existing = self._intermediates.get(token)
        if existing is not None and existing.deps == deps:
            self._intermediates.move_to_end(token)
            return
        name = request.job.root.name
        dataset = executor.datasets.get(name)
        working = request.run.statistics
        if not working.has(name):
            return  # nothing to replay without statistics: skip caching
        if existing is not None:
            self._drop_intermediate(token)
        stats = working.get(name)
        nbytes = intermediate_nbytes(dataset, stats)
        if nbytes > self.intermediate_bytes:
            self.stats.oversized += 1
            return
        self._intermediates[token] = _CachedIntermediate(
            dataset=dataset,
            stats=replace(stats, fields=dict(stats.fields)),
            deps=deps,
            nbytes=nbytes,
        )
        self.stats.held_bytes += nbytes
        while self.stats.held_bytes > self.intermediate_bytes:
            self._drop_intermediate(next(iter(self._intermediates)))
            self.stats.evictions += 1

    def _drop_intermediate(self, token: str) -> None:
        self.stats.held_bytes -= self._intermediates.pop(token).nbytes

    def publish_intermediate(self, token: str) -> None:
        """A job that stored ``token``'s content has completed: serve it."""
        entry = self._intermediates.get(token)
        if entry is not None:
            entry.visible = True
