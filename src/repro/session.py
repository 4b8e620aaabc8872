"""Session: the top-level public entry point of the library.

A session owns the simulated cluster, the dataset and statistics catalogs,
the UDF registry, and the executor. Typical use::

    from repro import PlannerSpec, Session
    session = Session()
    session.load("orders", orders_schema, rows)
    result = session.execute(query, PlannerSpec.of("dynamic"))
    print(result.seconds, result.plan_description)

Every query runs through the job scheduler: :meth:`Session.submit` queues
queries (with priorities) and :meth:`Session.run_all` drains them on the
shared simulated cluster clock. The blocking :meth:`Session.execute` is the
same path with a one-query schedule on a private scheduler, so serial and
concurrent execution cannot drift apart. Runtime dynamic optimization only
has a final plan after running, so there is no separate EXPLAIN: the result
carries the plan it ran (``result.plan``) and renders its trace
(``result.explain_analyze()``).

Intermediates created by re-optimization points live in the session
catalogs under their query's namespace while it runs; the scheduler drops
them when the query finishes. Only a failed run's checkpoint outlives it
(:meth:`Session.reset_intermediates` drops those too).

This constructor is the only place an execution stack (catalogs, executor,
scheduler) is built. A :class:`~repro.service.QueryService`
owns one, and a *tenant handle* opened against it (``Session(service=svc,
tenant="alice")``, i.e. ``svc.session("alice")``) is a view of it with the
same API: submissions carry the tenant name for fair admission and
per-tenant observability, loads go through the service's sketch store.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.cluster.config import ClusterConfig, default_cluster
from repro.common.errors import OptimizationError
from repro.common.types import Schema
from repro.engine.executor import Executor
from repro.engine.metrics import ExecutionResult
from repro.engine.scheduler import JobScheduler, QueryHandle, SchedulerConfig
from repro.lang.ast import Query
from repro.lang.udf import default_registry
from repro.spec import PlannerSpec, resolve_planner
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog
from repro.storage.dataset import Dataset
from repro.storage.ingest import load_dataset

if TYPE_CHECKING:
    from repro.service import QueryService


class Session:
    """One simulated BDMS instance: cluster + catalogs + executor."""

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        scheduler_config: SchedulerConfig | None = None,
        job_slots: int | None = None,
        service: QueryService | None = None,
        tenant: str = "",
    ) -> None:
        self.service = service
        self.tenant = tenant
        if service is not None:
            # Tenant handle: a view of the service's stack. The other
            # constructor arguments describe a private stack and are
            # meaningless here — reject them so a misconfigured tenant fails
            # loudly instead of silently ignoring its cluster/config.
            private = (cluster, scheduler_config, job_slots)
            if any(argument is not None for argument in private):
                raise OptimizationError(
                    "Session(service=...) shares the service's stack; "
                    "configure cluster/scheduler on the QueryService"
                )
            if not tenant:
                raise ValueError("tenant name must be non-empty")
            self.cluster = service.cluster
            self.datasets = service.datasets
            self.statistics = service.statistics
            self.udfs = service.udfs
            self.executor = service.executor
            self.scheduler_config = service.scheduler_config
            return
        self.cluster = cluster or default_cluster()
        self.scheduler_config = scheduler_config or SchedulerConfig()
        if job_slots is not None:
            self.scheduler_config = replace(self.scheduler_config, job_slots=job_slots)
        self.datasets = DatasetCatalog()
        self.statistics = StatisticsCatalog()
        self.udfs = default_registry()
        self.executor = Executor(
            self.cluster, self.datasets, self.statistics, self.udfs
        )
        self._scheduler = JobScheduler(self.executor, self.scheduler_config)

    @property
    def scheduler(self) -> JobScheduler:
        """The scheduler :meth:`submit` queues on — on a tenant handle, the
        service's current one, so a reset reaches every handle."""
        if self.service is not None:
            return self.service.scheduler
        return self._scheduler

    # -- data management ----------------------------------------------------

    def load(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[dict],
        scale: float = 1.0,
        replace: bool = False,
    ) -> Dataset:
        """Ingest a base dataset and register its ingestion-time statistics.

        ``rows`` is snapshotted once, here: partitions and statistics (built
        from the snapshot on first read) see the same rows whatever becomes
        of the caller's list, and an iterator loads whole.
        ``scale`` declares how many modeled full-scale rows each stored row
        represents (DESIGN.md §2); the cost clock and broadcast decisions use
        the modeled volumes. ``replace=True`` re-ingests an existing name,
        bumping its catalog version (service caches invalidate on it). A
        tenant session routes through the service so persisted ingestion
        sketches are reused when the content matches.
        """
        if self.service is not None:
            return self.service.load(name, schema, rows, scale=scale, replace=replace)
        return load_dataset(
            name,
            schema,
            tuple(rows),
            self.cluster,
            self.datasets,
            self.statistics,
            scale=scale,
            replace=replace,
        )

    def create_index(self, dataset: str, field_name: str) -> None:
        """Build a secondary index (enables INL as a join choice)."""
        self.datasets.get(dataset).create_index(field_name)

    def reset_intermediates(self) -> None:
        """Drop all materialized intermediates and their statistics.

        Catalog-wide: retained checkpoints go too — on a tenant handle,
        every tenant's.
        """
        for name in self.datasets.drop_intermediates():
            self.statistics.remove(name)

    # -- query execution ------------------------------------------------------

    def execute(
        self,
        query: Query,
        planner: PlannerSpec | str | None = None,
    ) -> ExecutionResult:
        """Optimize + execute ``query`` with one of the registered strategies.

        ``planner`` is a :class:`~repro.spec.PlannerSpec` naming the strategy
        — any of :meth:`optimizer_names`: ``dynamic``, ``cost_based``,
        ``from_order`` (stock AsterixDB: joins follow the FROM clause),
        ``best_order``, ``worst_order``, ``pilot_run``, ``ingres``,
        ``greedy_static``, ``sketch_online``, ``predicate_transfer`` — plus
        validated options, e.g.
        ``PlannerSpec.of("dynamic", policy=ReplanPolicy.default())``; a bare
        strategy name is also accepted.

        Runs as a one-query schedule on a private scheduler
        (:meth:`~repro.optimizers.base.Optimizer.execute`) — the same code
        path as concurrent submission with nobody to contend with, hence zero
        queue delay. Shared launches and space sharing are off here
        (``job_slots=1``): a solo run owns the full cluster; launch-sharing
        discounts and partition slices belong to :meth:`submit`/:meth:`run_all`.
        """
        spec = resolve_planner(planner, entry="execute")
        return spec.make().execute(query, self)

    def submit(
        self,
        query: Query,
        planner: PlannerSpec | str | None = None,
        priority: int = 0,
        label: str = "",
    ) -> QueryHandle:
        """Queue ``query`` on the session's shared scheduler.

        Nothing executes until :meth:`run_all`; the returned handle exposes
        status, the queueing delay charged under saturation, and (once run)
        the :class:`~repro.engine.metrics.ExecutionResult`. An invalid
        :class:`~repro.spec.PlannerSpec` raises immediately, not at run
        time. On a tenant session the submission carries the tenant name
        and, when the service caches results, its cache key.
        """
        spec = resolve_planner(planner, entry="submit")
        strategy = spec.make()
        handle = self.scheduler.submit(
            query,
            lambda namespace: strategy.stages(query, self, namespace=namespace),
            self,
            priority=priority,
            label=label,
            tenant=self.tenant,
        )
        if self.service is not None:
            handle.cache_key = self.service.cache_key_for(query, spec)
        return handle

    def run_all(self) -> list[QueryHandle]:
        """Run every submitted query to completion on the shared clock."""
        return self.scheduler.run_all()

    def reset_scheduler(self) -> JobScheduler:
        """Fresh scheduler (clock at zero); the old timeline is discarded.

        On a tenant session this resets the *service's* shared scheduler,
        which every tenant handle reads.
        """
        if self.service is not None:
            return self.service.reset_scheduler()
        self._scheduler = JobScheduler(self.executor, self.scheduler_config)
        return self._scheduler

    def optimizer_names(self) -> list[str]:
        from repro.optimizers import OPTIMIZERS

        return sorted(OPTIMIZERS)

    # -- introspection --------------------------------------------------------

    def dataset_rows(self, name: str) -> int:
        return self.datasets.get(name).row_count
