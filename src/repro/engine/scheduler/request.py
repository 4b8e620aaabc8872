"""The run record, job requests and outcomes: the seam between query drivers
and the cluster.

Algorithm 1 is a loop over one piece of state, and :class:`QueryRun` is its
type: the original query (whose ``parameters`` every job binds), the run's
working :class:`~repro.stats.catalog.StatisticsCatalog` (the one
``session.statistics.copy()`` a run makes), its intermediate-name
``namespace``, the cumulative :class:`~repro.engine.metrics.JobMetrics` and
the :class:`~repro.obs.trace.Tracer`. Every strategy starts one per
execution and everything per-run hangs off it; the dynamic driver's
checkpoint is "the run plus where the loop is".

Optimizer drivers are *resumable stage generators*: instead of calling the
executor directly they ``yield`` a :class:`JobRequest` (or a list of
independent requests) and receive a :class:`JobOutcome` (or a matching list)
back. The generator's ``return`` value is the finished
:class:`~repro.engine.metrics.ExecutionResult`. The run is the only
constructor of either end: :meth:`QueryRun.job` (a cluster job) and
:meth:`QueryRun.charge` (a virtual-cost pass) build requests,
:meth:`QueryRun.result` builds the result — whose ``phases`` are *read off
the trace's phase spans*, not kept beside them, so no strategy can report a
phase list that disagrees with what ran. (The service's cached answer in
``service/cache.py`` is the one other result constructor; it ran nothing.)

One consumer drives these generators: the
:class:`~repro.engine.scheduler.scheduler.JobScheduler`. It parks each
admitted query at its pending request, interleaves requests of different
queries on the shared simulated clock and lets several of them share one
cluster launch; a blocking run is the one-query case
(:func:`~repro.engine.scheduler.scheduler.run_solo`).

:func:`run_request` is the single place a request turns into executed work:
it opens the phase span, runs the job (or applies a pre-computed virtual
cost, or a cache replay the scheduler looked up), applies launch-sharing
discounts, merges the job's metrics into the run's cumulative total, and
records the request's estimate-accuracy point.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.analysis.runtime import record_replay_dataflow, verify_before_launch
from repro.common.errors import ReproError
from repro.engine.job import Job
from repro.engine.metrics import ExecutionResult, JobMetrics
from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.algebra.plan import PlanNode
    from repro.engine.data import ColumnarData
    from repro.engine.executor import Executor
    from repro.lang.ast import Query
    from repro.session import Session


class QueryRun:
    """One query execution's state, carried from stage to stage."""

    def __init__(
        self, query: Query, session: Session, label: str, namespace: str
    ) -> None:
        #: the query as submitted; every job binds its ``parameters``
        self.query = query
        #: private working catalog: Sink operators register online
        #: statistics here, so a run never pollutes the session's
        #: ingestion statistics
        self.statistics = session.statistics.copy()
        #: intermediate-name prefix (e.g. ``__q3``) isolating this run's
        #: materializations from every other query's: the namespace of the
        #: scheduler handle that drives the run, which releases it when the
        #: query finishes
        self.namespace = namespace
        #: cumulative charge of every request run so far
        self.metrics = JobMetrics()
        self.tracer = Tracer(query_label=f"{label}: {', '.join(query.aliases)}")

    def job(
        self,
        phase: str,
        job: Job,
        *,
        kind: str,
        estimate: tuple[str, float] | None = None,
        batch_key: str | None = None,
        cache_token: str | None = None,
    ) -> JobRequest:
        """A request to run one compiled cluster job as phase ``phase``."""
        return JobRequest(
            phase=phase,
            run=self,
            job=job,
            kind=kind,
            estimate=estimate,
            batch_key=batch_key,
            cache_token=cache_token,
        )

    def charge(self, phase: str, delta: JobMetrics, *, kind: str) -> JobRequest:
        """A virtual-cost request: ``delta`` is work the driver already did
        in-process (a pilot sample, a sketch pass, a filter build), charged
        to the simulated clock as one coordinator-side job."""
        return JobRequest(phase=phase, run=self, virtual_cost=delta, kind=kind)

    def result(
        self, data: ColumnarData, tree: PlanNode, decisions: Iterable = ()
    ) -> ExecutionResult:
        """Close the trace and package the finished run.

        ``tree`` is the plan the result describes (for the dynamic driver,
        the logical tree resolved back to the original FROM entries).
        """
        trace = self.tracer.finish()
        return ExecutionResult(
            rows=data.all_rows(),
            metrics=self.metrics,
            plan_description=tree.describe(),
            phases=[span.name for span in trace.phase_spans()],
            trace=trace,
            decisions=tuple(decisions),
        )


@dataclass
class JobRequest:
    """One unit of cluster work a driver asks the scheduler to perform.

    Built by :meth:`QueryRun.job` / :meth:`QueryRun.charge`: either ``job``
    (an executable operator tree) or ``virtual_cost`` (a pre-computed metrics
    delta, e.g. a pilot-run sample scan whose rows were already gathered by
    the driver) is set. ``run`` is the query execution the request belongs
    to; the runner binds the run's parameters, registers online statistics
    into its working catalog, traces into its tracer and merges this job's
    charge into its cumulative metrics, so span clocks and checkpoint
    metrics stay consistent no matter who drives the generator.
    """

    phase: str
    run: QueryRun
    job: Job | None = None
    virtual_cost: JobMetrics | None = None
    #: (operator label, estimated rows) to record against the job output's
    #: measured modeled rows once the phase closes.
    estimate: tuple[str, float] | None = None
    #: base dataset this request scans, when the scan is shareable with
    #: other pending pushdown requests over the same dataset.
    batch_key: str | None = None
    #: driver phase family: "pushdown" | "join" | "final" | "pilot" | ...
    kind: str = "job"
    #: namespace-free identity of the work this request performs, set by
    #: drivers for requests whose materialized output may be served from the
    #: service's intermediate cache (pushdown filters: base dataset +
    #: predicates + projection). ``None`` means "never cache me". The token
    #: is inert unless the executor carries a cache (query-service runs).
    cache_token: str | None = None


@dataclass
class JobOutcome:
    """What a driver receives back for one :class:`JobRequest`."""

    data: ColumnarData | None
    #: this job's own charge, *after* launch-sharing discounts — already
    #: merged into the run's cumulative metrics.
    metrics: JobMetrics
    #: branches of the launch this job rode in (>1 means a shared launch).
    shared_with: int = 1


@dataclass(frozen=True)
class LaunchShare:
    """One branch's place in a shared launch (:func:`_apply_scan_share`)."""

    #: branches the launch carries; its start-up is split across all of them.
    branches: int
    #: this branch's position among the launch's branches that scan the same
    #: base dataset (``batch_key``), and their count: the scan is split
    #: across those only.
    scan_position: int = 0
    scan_count: int = 1


#: What stage generators yield: one request or a list of independent ones.
StageItem = "JobRequest | list[JobRequest]"
Stages = Generator  # Generator[StageItem, JobOutcome | list[JobOutcome], T]


def _apply_scan_share(metrics: JobMetrics, share: LaunchShare) -> None:
    """Discount a shared-launch branch to its share of the launch.

    The launch starts once, so every branch is charged an even
    ``1/branches`` share of the start-up. Branches over the same base
    dataset scan it once, so each is charged ``1/scan_count`` of that scan.
    Branch-specific work (predicate evaluation, joins, materialize,
    sketches) stays fully charged to its own query. The integer
    tuples-scanned counter is split evenly with the remainder assigned to
    the first branch of the scan, so cluster-wide totals are conserved.
    """
    metrics.startup = metrics.startup / share.branches
    count = share.scan_count
    if count == 1:
        return
    metrics.scan = metrics.scan / count
    base = metrics.tuples_scanned // count
    if share.scan_position == 0:
        metrics.tuples_scanned = metrics.tuples_scanned - base * (count - 1)
    else:
        metrics.tuples_scanned = base


def _perform(
    executor: Executor,
    request: JobRequest,
    share: LaunchShare | None,
    partitions: int | None,
    replayed: tuple[Any, JobMetrics] | None,
) -> JobOutcome:
    run = request.run
    if replayed is not None:
        # An intermediate-cache hit (query-service runs only): the stored
        # materialization is already registered under this request's names
        # and charges nothing. The replay never reaches the launch gate, but
        # the query-level dataflow ledger still needs the job's writes or the
        # Q001/Q002 checks would flag the replayed intermediate.
        data, job_metrics = replayed
        record_replay_dataflow(request)
        run.metrics.merge(job_metrics)
        return JobOutcome(data=data, metrics=job_metrics)
    if request.virtual_cost is not None:
        # Virtual-cost requests carry a driver-computed metrics delta (pilot
        # sampling, sketch refresh); the charge is applied as given — those
        # jobs are coordinator-side work, not partitioned cluster jobs.
        data = None
        job_metrics = request.virtual_cost.copy()
    elif request.job is None:
        raise ReproError(f"request {request.phase!r} has neither job nor virtual cost")
    else:
        # Verify-on-compile gate: prove the job's invariants (P001-P007)
        # before anything launches. Zero simulated cost; raises
        # PlanVerificationError with the diagnostics when the job is broken.
        verify_before_launch(executor, request)
        data, job_metrics = executor.execute(
            request.job,
            run.query.parameters,
            run.statistics,
            tracer=run.tracer,
            partitions=partitions,
        )
        # Every executed cacheable request stores its materialization, solo
        # or as a shared-launch branch: a branch's Sink output is its own
        # (the discount below covers only the shared start-up and scan). The
        # entry is replayable once the scheduler's clock reaches the job's
        # end.
        if executor.cache is not None and request.cache_token is not None:
            executor.cache.store_intermediate(executor, request)
    shared_with = 1
    if share is not None and share.branches > 1:
        _apply_scan_share(job_metrics, share)
        shared_with = share.branches
    run.metrics.merge(job_metrics)
    return JobOutcome(data=data, metrics=job_metrics, shared_with=shared_with)


def run_request(
    executor: Executor,
    request: JobRequest,
    share: LaunchShare | None = None,
    partitions: int | None = None,
    replayed: tuple[Any, JobMetrics] | None = None,
) -> JobOutcome:
    """Execute one request: phase span, job, discounts, merge, estimate record.

    ``share`` places this request in a shared launch: the launch's start-up
    is split across its branches and a base scan across the branches that
    share it. Note that the operator spans inside the phase show the
    *undiscounted* in-job clock (the scan did physically happen once at
    full width); the phase span end and the run's cumulative metrics
    reflect the discounted share.
    ``partitions`` runs the job on a partition slice of the cluster (the
    space-shared scheduler's allotment); ``None`` means the full cluster.
    ``replayed`` is an intermediate-cache hit the scheduler looked up: the
    request is answered from it at zero charge instead of executing.
    """
    run = request.run
    tracer = run.tracer
    with tracer.phase(request.phase):
        outcome = _perform(executor, request, share, partitions, replayed)
        tracer.sync(run.metrics.total_seconds)
    if request.estimate is not None and outcome.data is not None:
        operator, estimated_rows = request.estimate
        tracer.record_estimate(
            request.phase, operator, estimated_rows, outcome.data.modeled_rows
        )
    return outcome
