"""The long-lived query service: one shared execution stack, many tenants.

A :class:`~repro.session.Session` builds cluster + catalogs + executor +
scheduler for one user; a :class:`QueryService` owns one such stack so it
outlives any one session. Sessions opened against a service
(:meth:`QueryService.session`) are lightweight tenant handles: views of that
stack whose every submission is tagged with their tenant name — which is
what the scheduler's fair admission, the per-tenant timeline lanes, and the
tail latency report key on.

The service adds two things a lone session does not have:

- a :class:`~repro.service.store.ServiceStore` (persistent per-dataset
  ingestion sketches, ``save_store``/``load_store``),
- a :class:`~repro.service.cache.ServiceCache` (result + intermediate
  caching with invalidation on ingest), installed via the scheduler's
  ``on_admit``/``on_finish`` hooks and the executor's ``cache`` attribute.

The schedule is the library's one schedule (``SchedulerConfig()``); a lone
session is its one-tenant case. So with ``ServiceConfig(result_cache=False,
intermediate_cache=False)`` the service path produces byte-identical
results, metrics and schedules to ``Session.submit``/``run_all`` (the
equivalence-harness test). Caching is observable in ``service.cache.stats``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.cluster.config import ClusterConfig
from repro.common.types import Schema
from repro.engine.metrics import ExecutionResult
from repro.engine.scheduler import JobScheduler, QueryHandle, SchedulerConfig
from repro.service.cache import INTERMEDIATE_BYTES, RESULT_BYTES, ServiceCache
from repro.service.store import ServiceStore, ingest_token
from repro.session import Session
from repro.spec import PlannerSpec
from repro.storage.dataset import Dataset
from repro.storage.ingest import load_dataset


@dataclass(frozen=True)
class ServiceConfig:
    """Caching policy of one query service."""

    #: answer repeated (query, parameters, spec) submissions from cache.
    result_cache: bool = True
    #: replay materialized pushdown filters across queries.
    intermediate_cache: bool = True
    #: byte budget of the result cache (``cache.result_nbytes``).
    result_cache_bytes: int = RESULT_BYTES
    #: byte budget of the intermediate cache (``cache.intermediate_nbytes``).
    intermediate_cache_bytes: int = INTERMEDIATE_BYTES


class QueryService:
    """Shared scheduler + catalogs + caches serving many tenant sessions."""

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        scheduler_config: SchedulerConfig | None = None,
        job_slots: int | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        # Session is the one constructor of an execution stack; the service
        # owns this one and every tenant handle is a view of it.
        stack = Session(cluster, scheduler_config, job_slots)
        self.cluster = stack.cluster
        self.datasets = stack.datasets
        self.statistics = stack.statistics
        self.udfs = stack.udfs
        self.executor = stack.executor
        self.scheduler_config = stack.scheduler_config
        #: persistent ingestion sketches.
        self.store = ServiceStore()
        self.cache: ServiceCache | None = None
        if self.config.result_cache or self.config.intermediate_cache:
            self.cache = ServiceCache(
                self.datasets,
                result_bytes=self.config.result_cache_bytes,
                intermediate_bytes=self.config.intermediate_cache_bytes,
            )
            self.datasets.subscribe(self.cache.invalidate_dataset)
            if self.config.intermediate_cache:
                self.executor.cache = self.cache
        self._sessions: dict[str, Session] = {}
        self.scheduler = self.reset_scheduler()

    # -- tenants --------------------------------------------------------------

    def session(self, tenant: str) -> Session:
        """The tenant's session handle (created on first use, then reused)."""
        if tenant not in self._sessions:
            self._sessions[tenant] = Session(service=self, tenant=tenant)
        return self._sessions[tenant]

    def tenants(self) -> list[str]:
        return sorted(self._sessions)

    # -- data management ------------------------------------------------------

    def load(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[dict],
        scale: float = 1.0,
        replace: bool = False,
    ) -> Dataset:
        """Ingest a dataset service-wide, reusing persisted sketches.

        When the store holds ingestion statistics whose content token
        matches these exact rows, each persisted sketch is adopted instead of
        being built from the rows — the restart round-trip; a field half that
        was not persisted is built on first read, as for any ingestion. The
        entry goes to the store as it is (built on first read, what was
        built persisted on save). ``replace=True`` re-ingests an existing
        name, bumping its catalog version (which invalidates cached results
        computed from it). ``rows`` is snapshotted once: token, partitions
        and statistics see the same rows.
        """
        rows = tuple(rows)
        token = ingest_token(schema, rows, scale)
        dataset = load_dataset(
            name,
            schema,
            rows,
            self.cluster,
            self.datasets,
            self.statistics,
            scale=scale,
            replace=replace,
            precollected=self.store.sketches_for(name, token),
        )
        self.store.remember_sketches(name, token, self.statistics.get(name))
        return dataset

    def create_index(self, dataset: str, field_name: str) -> None:
        self.datasets.get(dataset).create_index(field_name)

    # -- execution ------------------------------------------------------------

    def run_all(self) -> list[QueryHandle]:
        """Drain every tenant's submissions on the shared clock."""
        return self.scheduler.run_all()

    def reset_scheduler(self) -> JobScheduler:
        """Fresh shared scheduler (clock at zero) with the cache hooks installed."""
        self.scheduler = JobScheduler(self.executor, self.scheduler_config)
        if self.config.result_cache:
            self.scheduler.on_admit = self._on_admit
            self.scheduler.on_finish = self._on_finish
        return self.scheduler

    def cache_key_for(self, query, spec: PlannerSpec):
        """Identity of one (query, bound parameters, planner) submission."""
        parameters = tuple(
            sorted((k, repr(v)) for k, v in query.parameters.items())
        )
        hints = tuple(t.broadcast_hint for t in query.tables)
        return (
            query.describe(),
            parameters,
            hints,
            spec.strategy,
            tuple((k, repr(v)) for k, v in spec.options),
        )

    # -- persistence ----------------------------------------------------------

    def save_store(self, path: str) -> None:
        """Persist the ingestion sketches as JSON."""
        self.store.save(path)

    def load_store(self, path: str) -> None:
        """Restore a saved store (sketches survive restarts)."""
        self.store.load(path)

    # -- scheduler hooks ------------------------------------------------------

    def _on_admit(self, handle: QueryHandle) -> ExecutionResult | None:
        if handle.cache_key is None or self.cache is None:
            return None
        return self.cache.lookup_result(handle.cache_key)

    def _on_finish(self, handle: QueryHandle, result: ExecutionResult) -> None:
        if handle.cache_key is None or self.cache is None:
            return
        datasets = tuple({table.dataset for table in handle.query.tables})
        self.cache.store_result(handle.cache_key, result, datasets)
