"""Job execution against the simulated cluster.

The executor wires together the cluster config, cost model, catalogs and
evaluation context, runs jobs, and returns their output with per-job metrics.
It is deliberately stateless between jobs except through the catalogs — which
is exactly how re-optimization points communicate (materialized intermediates
and their statistics live in the catalogs, not in the executor).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.runtime import VerifierStats
from repro.cluster.config import ClusterConfig
from repro.cluster.cost import CostModel
from repro.engine.data import ColumnarData
from repro.engine.job import Job
from repro.engine.metrics import JobMetrics
from repro.engine.operators.base import ExecState
from repro.lang.ast import EvaluationContext
from repro.lang.udf import UdfRegistry
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog

if TYPE_CHECKING:
    from repro.service.cache import ServiceCache


class Executor:
    """Runs :class:`~repro.engine.job.Job` trees and accounts their cost."""

    def __init__(
        self,
        cluster: ClusterConfig,
        datasets: DatasetCatalog,
        statistics: StatisticsCatalog,
        udfs: UdfRegistry,
    ) -> None:
        self.cluster = cluster
        self.datasets = datasets
        self.statistics = statistics
        self.udfs = udfs
        self.cost = CostModel(cluster)
        #: verify-on-compile gate (DESIGN.md §9): every scheduled job is
        #: checked against rules P001-P007 before it launches. Zero simulated
        #: cost; host wall time accrues here.
        self.verifier_stats = VerifierStats()
        #: intermediate-result cache (set by the query service; ``None`` for
        #: plain sessions). Consulted by the scheduler's request runner, not
        #: by ``execute`` itself, so the executor stays stateless per job.
        self.cache: ServiceCache | None = None

    def execute(
        self,
        job: Job,
        parameters: dict | None = None,
        statistics: StatisticsCatalog | None = None,
        tracer=None,
        partitions: int | None = None,
    ) -> tuple[ColumnarData, JobMetrics]:
        """Run one job; returns its output data and this job's metrics.

        ``statistics`` overrides the catalog that Sink operators register
        online statistics into — optimizers pass their private working copy
        so experiment runs never pollute the session's ingestion statistics.
        ``tracer`` (an :class:`repro.obs.Tracer`) makes every operator open a
        trace span; it observes metrics without charging anything, so the
        returned metrics are identical with or without it.
        ``partitions`` restricts the job to a partition slice of the cluster
        (the space-shared scheduler's per-job allotment): all cost formulas
        divide by the slice width and the join memory budget shrinks with
        it, while data placement — and therefore the job's output rows —
        stays exactly the same.
        """
        metrics = JobMetrics()
        metrics.jobs = 1
        cost = self.cost if partitions is None else self.cost.with_partitions(partitions)
        metrics.startup = cost.job_startup()
        state = ExecState(
            cluster=self.cluster,
            cost=cost,
            datasets=self.datasets,
            statistics=statistics if statistics is not None else self.statistics,
            evaluation=EvaluationContext(parameters or {}, self.udfs),
            metrics=metrics,
            tracer=tracer,
        )
        data = job.root.run(state)
        return data, metrics
