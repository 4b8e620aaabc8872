"""Job requests and outcomes: the seam between query drivers and the cluster.

Optimizer drivers are *resumable stage generators*: instead of calling the
executor directly they ``yield`` a :class:`JobRequest` (or a list of
independent requests) and receive a :class:`JobOutcome` (or a matching list)
back. The generator's ``return`` value is the finished
:class:`~repro.engine.metrics.ExecutionResult`.

Two consumers drive these generators:

- :func:`drive_stages` — the synchronous pump. It executes every request
  immediately, in order, on the given executor. Driving a generator this way
  is byte-identical to the old blocking call chain (same job order, same
  metrics, same trace spans), which is what keeps ``Optimizer.execute``
  deterministic and lets the checkpoint/resume tests compare against it.
- :class:`~repro.engine.scheduler.scheduler.JobScheduler` — the concurrent
  admission loop. It parks each admitted query at its pending request,
  interleaves requests of different queries on the shared simulated clock,
  and merges batchable pushdown scans.

:func:`run_request` is the single place a request turns into executed work:
it opens the phase span, runs the job (or applies a pre-computed virtual
cost), applies refunds and scan-sharing discounts, merges the job's metrics
into the query's running total, and records the request's estimate-accuracy
point. Keeping all of that here means the pump and the scheduler cannot
drift apart.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.runtime import record_replay_dataflow, verify_before_launch
from repro.common.errors import ReproError
from repro.engine.job import Job
from repro.engine.metrics import JobMetrics

if TYPE_CHECKING:
    from repro.engine.data import ColumnarData
    from repro.engine.executor import Executor
    from repro.obs.trace import Tracer
    from repro.stats.catalog import StatisticsCatalog


@dataclass
class JobRequest:
    """One unit of cluster work a driver asks the scheduler to perform.

    Either ``job`` (an executable operator tree) or ``virtual_cost`` (a
    pre-computed metrics delta, e.g. a pilot-run sample scan whose rows were
    already gathered by the driver) must be set. ``cumulative`` is the
    query's running :class:`JobMetrics`; the runner merges this job's charge
    into it so span clocks and checkpoint metrics stay consistent no matter
    who drives the generator.
    """

    phase: str
    cumulative: JobMetrics
    job: Job | None = None
    virtual_cost: JobMetrics | None = None
    parameters: dict = field(default_factory=dict)
    statistics: StatisticsCatalog | None = None
    tracer: Tracer | None = None
    #: zero out the job's online-statistics charge before merging (the
    #: Figure-6 "no online statistics" refund).
    refund_stats: bool = False
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
    #: this job's own charge, *after* refunds and scan-sharing discounts —
    #: already merged into the request's ``cumulative`` metrics.
    metrics: JobMetrics
    #: queries whose scans were merged with this one (>1 means batched).
    shared_with: int = 1


#: What stage generators yield: one request or a list of independent ones.
StageItem = "JobRequest | list[JobRequest]"
Stages = Generator  # Generator[StageItem, JobOutcome | list[JobOutcome], T]


def _apply_scan_share(metrics: JobMetrics, position: int, count: int) -> None:
    """Discount a batched pushdown branch to its share of the merged scan.

    The merged job scans the base dataset once and launches once; every
    participating branch is charged an even ``1/count`` share of that scan
    and startup. Branch-specific work (predicate evaluation, materialize,
    sketches) stays fully charged to its own query. The integer
    tuples-scanned counter is split evenly with the remainder assigned to
    the first branch so cluster-wide totals are conserved.
    """
    metrics.scan = metrics.scan / count
    metrics.startup = metrics.startup / count
    base = metrics.tuples_scanned // count
    if position == 0:
        metrics.tuples_scanned = metrics.tuples_scanned - base * (count - 1)
    else:
        metrics.tuples_scanned = base


def _perform(
    executor: Executor,
    request: JobRequest,
    scan_share: tuple[int, int] | None,
    partitions: int | None,
) -> JobOutcome:
    # Intermediate cache (query-service runs only; ``executor.cache`` is
    # None everywhere else). A cacheable request launched on its own —
    # never as a branch of a merged scan, whose 1/n discounting assumes
    # every branch physically shares the scan — may replay a previously
    # materialized pushdown result: the intermediate dataset and its
    # statistics are re-registered under this request's names at zero
    # simulated cost, and on a miss the fresh materialization is stored.
    cache = getattr(executor, "cache", None)
    cacheable = (
        cache is not None
        and request.cache_token is not None
        and request.virtual_cost is None
        and scan_share is None
    )
    if cacheable:
        replayed = cache.fetch_intermediate(executor, request)
        if replayed is not None:
            data, job_metrics = replayed
            # The replay never reaches the launch gate, but the query-level
            # dataflow ledger still needs the job's writes registered or the
            # Q001/Q002 checks would flag the replayed intermediate.
            record_replay_dataflow(executor, request)
            request.cumulative.merge(job_metrics)
            return JobOutcome(data=data, metrics=job_metrics, shared_with=1)
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
            request.parameters,
            request.statistics,
            tracer=request.tracer,
            partitions=partitions,
        )
        if cacheable:
            cache.store_intermediate(executor, request)
    shared_with = 1
    if scan_share is not None and scan_share[1] > 1:
        _apply_scan_share(job_metrics, *scan_share)
        shared_with = scan_share[1]
    if request.refund_stats:
        job_metrics.stats = 0.0
    request.cumulative.merge(job_metrics)
    return JobOutcome(data=data, metrics=job_metrics, shared_with=shared_with)


def run_request(
    executor: Executor,
    request: JobRequest,
    scan_share: tuple[int, int] | None = None,
    partitions: int | None = None,
) -> JobOutcome:
    """Execute one request: phase span, job, refunds, merge, estimate record.

    ``scan_share`` is ``(position, count)`` when this request runs as one
    branch of a merged pushdown scan; the shared scan + startup cost is
    split evenly across the ``count`` branches. Note that the operator spans
    inside the phase show the *undiscounted* in-job clock (the scan did
    physically happen once at full width); the phase span end and the
    query's cumulative metrics reflect the discounted share.
    ``partitions`` runs the job on a partition slice of the cluster (the
    space-shared scheduler's allotment); ``None`` means the full cluster.
    """
    tracer = request.tracer
    if tracer is None:
        return _perform(executor, request, scan_share, partitions)
    with tracer.phase(request.phase):
        outcome = _perform(executor, request, scan_share, partitions)
        tracer.sync(request.cumulative.total_seconds)
    if request.estimate is not None and outcome.data is not None:
        operator, estimated_rows = request.estimate
        tracer.record_estimate(
            request.phase, operator, estimated_rows, outcome.data.modeled_rows
        )
    return outcome


def drive_stages(stages: Stages, executor: Executor):
    """Synchronously pump a stage generator to completion.

    Every yielded request executes immediately in order — exactly the old
    blocking call chain — and the generator's return value (normally an
    :class:`~repro.engine.metrics.ExecutionResult`) is returned. Exceptions
    raised inside the generator (e.g. ``SimulatedFailure``) propagate.
    """
    payload: object = None
    while True:
        try:
            item = stages.send(payload)
        except StopIteration as stop:
            return stop.value
        if isinstance(item, JobRequest):
            payload = run_request(executor, item)
        else:
            payload = [run_request(executor, r) for r in _as_requests(item)]


def _as_requests(item: Iterable[JobRequest]) -> list[JobRequest]:
    requests = list(item)
    for request in requests:
        if not isinstance(request, JobRequest):
            raise TypeError(
                f"stage generators must yield JobRequest items, got {request!r}"
            )
    return requests
