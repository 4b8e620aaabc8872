"""The long-lived query service: one shared execution stack, many tenants.

A :class:`~repro.session.Session` bundles cluster + catalogs + executor +
scheduler for one user; a :class:`QueryService` lifts that stack out so it
outlives any one session. Sessions opened against a service
(:meth:`QueryService.session`) are lightweight tenant handles: they share
the service's catalogs, executor, feedback store and scheduler, and every
submission they make is tagged with their tenant name — which is what the
scheduler's fair admission, the per-tenant timeline lanes, and the tail
latency report key on.

The service adds three things a lone session does not have:

- a :class:`~repro.service.store.ServiceStore` (persistent per-dataset
  feedback + ingestion sketches, ``save_store``/``load_store``),
- a :class:`~repro.service.cache.ServiceCache` (result + intermediate
  caching with invalidation on ingest), installed via the scheduler's
  ``on_admit``/``on_finish`` hooks and the executor's ``cache`` attribute,
- multi-tenant admission policy defaults (fair round-robin across tenants,
  a bounded queue, size-adaptive partition slices).

Byte-identity escape hatch: ``ServiceConfig(result_cache=False,
intermediate_cache=False)`` plus a scheduler config matching a plain
session's makes the service path produce byte-identical results, metrics
and schedules to ``Session.submit``/``run_all`` — proven by the
equivalence-harness test. All caching is observable through
``service.cache.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.config import ClusterConfig, default_cluster
from repro.cluster.cost import CostParameters
from repro.common.types import Schema
from repro.engine.executor import Executor
from repro.engine.scheduler import JobScheduler, QueryHandle, SchedulerConfig
from repro.lang.udf import UdfRegistry, default_registry
from repro.service.cache import ServiceCache
from repro.service.store import ServiceStore, ingest_token, query_group_key
from repro.spec import PlannerSpec
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog
from repro.storage.dataset import Dataset
from repro.storage.ingest import load_dataset


@dataclass(frozen=True)
class ServiceConfig:
    """Caching and feedback policy of one query service."""

    #: answer repeated (query, parameters, spec) submissions from cache.
    result_cache: bool = True
    #: replay materialized pushdown filters across queries.
    intermediate_cache: bool = True
    result_cache_entries: int = 128
    intermediate_cache_entries: int = 64
    #: window of the persistent feedback store (per group and combined).
    feedback_window: int = 64


def default_service_scheduler_config() -> SchedulerConfig:
    """The multi-tenant admission defaults a service starts with.

    Fair per-tenant admission and a bounded queue are on — a service exists
    to multiplex tenants — while ``job_slots``/batching keep the library
    defaults. Pass an explicit :class:`SchedulerConfig` to override.
    """
    return SchedulerConfig(fair_tenants=True, max_queued=10_000)


class QueryService:
    """Shared scheduler + catalogs + caches serving many tenant sessions."""

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        udfs: UdfRegistry | None = None,
        cost_parameters: CostParameters | None = None,
        scheduler_config: SchedulerConfig | None = None,
        job_slots: int | None = None,
        verify_plans: bool = True,
        config: ServiceConfig | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.cluster = cluster or default_cluster()
        if scheduler_config is None:
            scheduler_config = default_service_scheduler_config()
        if job_slots is not None:
            scheduler_config = replace(scheduler_config, job_slots=job_slots)
        self.scheduler_config = scheduler_config
        self.datasets = DatasetCatalog()
        self.statistics = StatisticsCatalog()
        self.udfs = udfs or default_registry()
        self.executor = Executor(
            self.cluster,
            self.datasets,
            self.statistics,
            self.udfs,
            cost_parameters,
            verify_plans=verify_plans,
        )
        self.scheduler = JobScheduler(self.executor, scheduler_config)
        #: persistent feedback + sketches; ``feedback`` aliases its log so
        #: the scheduler's observe path finds it like a session's.
        self.store = ServiceStore(self.config.feedback_window)
        self.feedback = self.store.feedback
        self.cache: ServiceCache | None = None
        if self.config.result_cache or self.config.intermediate_cache:
            self.cache = ServiceCache(
                self.datasets,
                result_entries=self.config.result_cache_entries,
                intermediate_entries=self.config.intermediate_cache_entries,
            )
            self.datasets.subscribe(self.cache.invalidate_dataset)
            if self.config.intermediate_cache:
                self.executor.cache = self.cache
            if self.config.result_cache:
                self.scheduler.on_admit = self._on_admit
                self.scheduler.on_finish = self._on_finish
        self._sessions: dict[str, object] = {}

    # -- tenants --------------------------------------------------------------

    def session(self, tenant: str):
        """The tenant's session handle (created on first use, then reused)."""
        from repro.session import Session

        if not tenant:
            raise ValueError("tenant name must be non-empty")
        existing = self._sessions.get(tenant)
        if existing is None:
            existing = self._sessions[tenant] = Session(service=self, tenant=tenant)
        return existing

    def tenants(self) -> list[str]:
        return sorted(self._sessions)

    # -- data management ------------------------------------------------------

    def load(
        self,
        name: str,
        schema: Schema,
        rows: list[dict],
        scale: float = 1.0,
        replace: bool = False,
    ) -> Dataset:
        """Ingest a dataset service-wide, reusing persisted sketches.

        When the store holds ingestion statistics whose content token
        matches these exact rows, the collection pass is skipped and the
        persisted GK/HLL sketches are registered instead — the restart
        round-trip. A fresh collection is persisted into the store.
        ``replace=True`` re-ingests an existing name, bumping its catalog
        version (which invalidates cached results computed from it).
        """
        token = ingest_token(schema, rows, scale)
        precollected = self.store.sketches_for(name, token)
        dataset = load_dataset(
            name,
            schema,
            rows,
            self.cluster,
            self.datasets,
            self.statistics,
            scale=scale,
            replace=replace,
            precollected=precollected,
        )
        if precollected is None:
            self.store.remember_sketches(name, token, self.statistics.get(name))
        return dataset

    def create_index(self, dataset: str, field_name: str) -> None:
        self.datasets.get(dataset).create_index(field_name)

    # -- execution ------------------------------------------------------------

    def run_all(self) -> list[QueryHandle]:
        """Drain every tenant's submissions on the shared clock."""
        return self.scheduler.run_all()

    def reset_scheduler(self) -> JobScheduler:
        """Fresh shared scheduler (clock at zero); re-installs cache hooks."""
        self.scheduler = JobScheduler(self.executor, self.scheduler_config)
        if self.cache is not None and self.config.result_cache:
            self.scheduler.on_admit = self._on_admit
            self.scheduler.on_finish = self._on_finish
        for session in self._sessions.values():
            session.scheduler = self.scheduler
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
        """Persist feedback history + ingestion sketches as JSON."""
        self.store.save(path)

    def load_store(self, path: str) -> None:
        """Restore a saved store (thresholds + sketches survive restarts)."""
        self.store.load(path)

    # -- scheduler hooks ------------------------------------------------------

    def _on_admit(self, handle):
        if handle.cache_key is None or self.cache is None:
            return None
        return self.cache.lookup_result(handle.cache_key)

    def _on_finish(self, handle, result) -> None:
        if handle.cache_key is None or self.cache is None:
            return
        tables = getattr(handle.query, "tables", ())
        datasets = tuple({table.dataset for table in tables})
        self.cache.store_result(handle.cache_key, result, datasets)

    # -- introspection --------------------------------------------------------

    def describe(self) -> dict:
        """Shape summary for logs and the bench report."""
        info = {
            "tenants": self.tenants(),
            "datasets": self.datasets.names(),
            "sketched": self.store.sketched_datasets(),
            "feedback_queries": self.feedback.queries,
            "feedback_groups": sorted(self.feedback.groups),
        }
        if self.cache is not None:
            stats = self.cache.stats
            info["cache"] = {
                "result_hits": stats.result_hits,
                "result_misses": stats.result_misses,
                "intermediate_hits": stats.intermediate_hits,
                "intermediate_misses": stats.intermediate_misses,
                "invalidations": stats.invalidations,
            }
        return info


# re-export for callers that only import the service module
__all__ = [
    "QueryService",
    "ServiceConfig",
    "default_service_scheduler_config",
    "ingest_token",
    "query_group_key",
]
