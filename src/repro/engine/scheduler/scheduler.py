"""The job scheduler: concurrent query admission on the simulated cluster.

The paper frames every re-optimization stage as an independently submitted
Hyracks job; this module exploits exactly that seam. Drivers are resumable
stage generators (``yield JobRequest → receive JobOutcome``); the scheduler
parks each admitted query at its pending request and interleaves requests of
different queries on one shared simulated clock. There is one schedule:

- **Admission.** At most ``max_concurrent_queries`` queries run at once; the
  rest wait, charged for it, in a queue of at most ``max_queued`` entries
  (:class:`~repro.common.errors.AdmissionError` on overflow). Highest
  priority is admitted first; within a priority level the tenant with the
  fewest admissions so far (a deficit round-robin: no tenant's flood starves
  another), FIFO within a tenant. A plain session is the one-tenant case
  (tenant ``""``), where this *is* priority/FIFO order.
- **Launches.** The cluster is a pool of ``job_slots`` slots. Whenever one
  is free and a query has a ready request, the launch rule
  (:func:`~.launch.plan_launches`) says which requests share each new
  launch and how wide its slice is; otherwise the clock jumps to the
  earliest in-flight completion. A job on an ``n``-partition slice is costed
  against :meth:`repro.cluster.cost.CostModel.with_partitions`; every answer
  is unaffected. A shared launch's start-up is split evenly across its
  branches, a base scan across the branches that read it; each branch keeps
  its own work, intermediate, statistics catalog and trace.
- **Cache replay.** Under a query service every cacheable request is looked
  up once, when it becomes ready, and a hit is replayed at that instant: no
  slot, no cluster job, no narrower slice for the jobs launched beside it.
- **Queueing delay.** A query is charged delay only while the cluster had
  *no free slice* for its ready request, or while it waited for admission,
  so a solo query accrues none. Delay lands on the per-query schedule
  record, never on its :class:`~repro.engine.metrics.JobMetrics`.
- **Query ids.** Every query materializes into its own catalog namespace,
  ``__q<id>`` unless it resumes a checkpoint, whose intermediates already
  live under the namespace of the run that failed. Ids count up from 1 per
  scheduler, skipping any whose namespace is live, so the schedulers of one
  stack (the shared one, the private one behind each blocking run, a fresh
  one after ``reset_scheduler``) never write into a retained checkpoint.
- **Blocking runs.** :func:`run_solo` is the one-query case, on a
  :func:`solo_scheduler`: one slot, and a rule
  (:func:`~.launch.plan_alone`) that launches every request by itself.
  ``Session.execute``, ``Optimizer.execute``, ``execute_tree`` and
  ``DynamicOptimizer.resume`` all run through it; there is no other driver
  of a stage generator.

A :class:`~repro.service.QueryService` installs ``on_admit``/``on_finish``
hooks to answer repeated queries from its result cache. Each query gets a
:class:`ScheduleInfo`, failed ones too, and each cluster job an event in a
:class:`~repro.obs.timeline.ClusterTimeline`. A query's namespaced
intermediates are dropped when it ends, unless it failed with a resumable
checkpoint: those are the recovery state.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.common.errors import AdmissionError, ReproError
from repro.engine.metrics import ExecutionResult
from repro.engine.scheduler.launch import (
    LaunchRule,
    ReadyRequest,
    plan_alone,
    plan_launches,
    read_seconds,
)
from repro.engine.scheduler.request import (
    JobOutcome,
    JobRequest,
    LaunchShare,
    Stages,
    run_request,
)
from repro.obs.timeline import ClusterTimeline, TimelineEvent

if TYPE_CHECKING:
    from repro.engine.executor import Executor
    from repro.lang.ast import Query
    from repro.session import Session

#: builds a query's stage generator, given the namespace it writes under
StageSource = Callable[[str], Stages]


@dataclass(frozen=True)
class SchedulerConfig:
    """Admission and space-sharing policy of one scheduler."""

    #: queries allowed past admission at once; submissions beyond this wait.
    max_concurrent_queries: int = 4
    #: partition-slice slots: how many cluster jobs may run concurrently.
    #: 1 is the serial schedule (every job alone on the full cluster); >1
    #: space-shares it, splitting partitions evenly across active jobs.
    job_slots: int = 1
    #: bound on the admission queue: a submission past this many waiting
    #: queries raises :class:`~repro.common.errors.AdmissionError`.
    max_queued: int = 10_000

    def __post_init__(self) -> None:
        if self.max_concurrent_queries < 1:
            raise ReproError("scheduler needs at least one admission slot")
        if self.job_slots < 1:
            raise ReproError("scheduler needs at least one job slot")
        if self.max_queued is None or self.max_queued < 1:
            raise ReproError("max_queued must be >= 1")


@dataclass(frozen=True)
class ScheduleInfo:
    """How one query fared on the shared cluster timeline."""

    query_id: int
    priority: int
    submitted_at: float
    admitted_at: float
    finished_at: float
    #: simulated seconds spent waiting (admission queue + no free partition
    #: slice); zero when the query never had to wait for cluster capacity.
    queue_delay_seconds: float
    #: the query's own charged work (== its metrics.total_seconds).
    busy_seconds: float
    #: set when the query failed: ``"ExceptionType: message"``. A failed
    #: query still gets a schedule record so throughput reports and the
    #: cluster timeline account for the capacity it consumed.
    error: str | None = None
    #: tenant name the query was submitted under ("" outside a service).
    tenant: str = ""
    #: True when the query was answered from the service's result cache at
    #: admission time: zero cluster work, ``busy_seconds == 0``.
    cache_hit: bool = False

    @property
    def latency_seconds(self) -> float:
        """Submission-to-completion time on the shared clock."""
        return self.finished_at - self.submitted_at

    @property
    def failed(self) -> bool:
        return self.error is not None


class QueryHandle:
    """One submitted query's lifecycle: queued → running → done/failed."""

    def __init__(
        self,
        query_id: int,
        query: Query,
        stages: StageSource,
        session: Session,
        priority: int,
        label: str,
        submitted_at: float,
        tenant: str,
        namespace: str,
    ) -> None:
        #: unique per scheduler and increasing in submission order
        self.query_id = query_id
        self.query = query
        self.session = session
        #: the catalog prefix every intermediate of this query lives under;
        #: the driver writes, the completion pass verifies and the release
        #: drops exactly this one namespace
        self.namespace = namespace
        self._stages = stages
        self.priority = priority
        self.label = label or f"q{query_id}"
        self.tenant = tenant
        #: result-cache key, set by the query service at submit time; the
        #: scheduler itself never reads it (its cache hooks do).
        self.cache_key: tuple | None = None
        self.status = "queued"
        self.submitted_at = submitted_at
        self.admitted_at: float | None = None
        self.finished_at: float | None = None
        self.queue_delay_seconds = 0.0
        #: total charged work recorded so far (sum of outcome metrics);
        #: the basis of a failed query's schedule record.
        self.charged_seconds = 0.0
        #: schedule record, set at finish *and* at failure.
        self.schedule: ScheduleInfo | None = None
        #: shared-clock instant since which the query's next work is ready
        self.ready_since = submitted_at
        self._generator: Any = None  # the query's stage generator
        self._group = False
        self._requests: list[JobRequest] = []
        self._outcomes: list[JobOutcome | None] = []
        #: index -> (batch key, virtual, read seconds) of each request neither
        #: answered nor launched: its :class:`ReadyRequest`'s fixed part,
        #: taken when it became ready
        self._ready: dict[int, tuple[str | None, bool, float]] = {}
        self._result: ExecutionResult | None = None
        self._error: BaseException | None = None

    # -- public API -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.status == "done"

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @property
    def error(self) -> BaseException | None:
        return self._error

    def result(self) -> ExecutionResult:
        """The finished result; re-raises the query's error if it failed."""
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise ReproError(
                f"query {self.label!r} has not finished; call run_all() first"
            )
        return self._result

    # -- scheduler internals --------------------------------------------------

    def _has_pending(self) -> bool:
        return any(outcome is None for outcome in self._outcomes)

    def _record_outcome(self, index: int, outcome: JobOutcome) -> None:
        self._outcomes[index] = outcome
        self.charged_seconds += outcome.metrics.total_seconds

    def _payload(self):
        outcomes = self._outcomes
        return outcomes if self._group else outcomes[0]


def _tenants_of(handles) -> tuple[str, ...]:
    """Distinct non-empty tenant names, in participant order."""
    return tuple(dict.fromkeys(h.tenant for h in handles if h.tenant))


@dataclass(order=True)
class _InFlightJob:
    """One launched cluster job awaiting its completion instant."""

    end_seconds: float
    order: int  # launch sequence; heap tie-break keeps pops deterministic
    slot: int = field(compare=False)
    #: (query, request index, outcome) per branch the job carried
    performed: list[tuple[QueryHandle, int, JobOutcome]] = field(compare=False)
    participants: list[QueryHandle] = field(compare=False)


class JobScheduler:
    """Admission + space sharing + batching over one simulated cluster."""

    def __init__(self, executor: Executor, config: SchedulerConfig | None = None) -> None:
        self.executor = executor
        self.config = config or SchedulerConfig()
        #: the shared simulated clock (latest completion processed so far)
        self.now = 0.0
        #: cluster jobs actually launched (a shared launch counts once)
        self.cluster_jobs = 0
        #: base-dataset scans avoided by merging pushdown jobs
        self.scans_saved = 0
        self.timeline = ClusterTimeline()
        self._waiting: list[QueryHandle] = []
        self._running: list[QueryHandle] = []
        #: min-heap of launched jobs keyed by (end time, launch order)
        self._in_flight: list[_InFlightJob] = []
        #: free slice-lane ids (min-heap so lanes fill lowest-first)
        self._free_slots: list[int] = list(range(self.config.job_slots))
        heapq.heapify(self._free_slots)
        self._launch_order = 0
        self._next_id = 1
        #: which ready requests share a launch, and how wide (DESIGN.md §7)
        self.plan: LaunchRule = plan_launches
        #: lifetime admissions per tenant (fair-admission bookkeeping).
        self._tenant_admissions: Counter[str] = Counter()
        #: service hooks, ``None`` outside a QueryService: ``on_admit`` may
        #: answer an admitted query from a cache before its driver is even
        #: created; ``on_finish`` observes every completed (uncached) result.
        self.on_admit: Callable[[QueryHandle], ExecutionResult | None] | None = None
        self.on_finish: Callable[[QueryHandle, ExecutionResult], None] | None = None
        #: cache-token -> scan-signature ledger shared across this
        #: scheduler's queries (the Q004 cross-query collision check).
        self._dataflow_tokens: dict[str, tuple[str, ...]] = {}

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        query: Query,
        stages: StageSource,
        session: Session,
        priority: int = 0,
        label: str = "",
        tenant: str = "",
        namespace: str = "",
    ) -> QueryHandle:
        """Queue one query for execution.

        ``stages`` builds the query's stage generator from the namespace it
        is to write under (for a strategy,
        ``lambda ns: strategy.stages(query, session, namespace=ns)``). The
        namespace is ``__q<id>`` unless ``namespace`` names the one a
        resumed checkpoint's intermediates live in. Nothing runs until
        :meth:`run_all`; higher ``priority`` is admitted and serviced first,
        round-robin across tenants within a priority level, FIFO within a
        tenant. A full queue (``max_queued``) rejects the submission with
        :class:`~repro.common.errors.AdmissionError`.
        """
        if len(self._waiting) >= self.config.max_queued:
            raise AdmissionError(
                f"admission queue full ({len(self._waiting)} waiting, "
                f"max_queued={self.config.max_queued}); "
                f"rejecting {label or 'query'!r}"
                + (f" from tenant {tenant!r}" if tenant else "")
            )
        # Schedulers of one stack share its catalog but count ids separately:
        # skip any id whose namespace is live (a checkpoint an earlier failure
        # kept), or this query would overwrite and then release it.
        names = session.datasets.names()
        while any(name.startswith(f"__q{self._next_id}__") for name in names):
            self._next_id += 1
        handle = QueryHandle(
            query_id=self._next_id,
            query=query,
            stages=stages,
            session=session,
            priority=priority,
            label=label,
            submitted_at=self.now,
            tenant=tenant,
            namespace=namespace or f"__q{self._next_id}",
        )
        self._next_id += 1
        self._waiting.append(handle)
        return handle

    # -- the event loop -------------------------------------------------------

    def run_all(self) -> list[QueryHandle]:
        """Drain the queue: admit, launch onto free slices, complete, repeat.

        A failing query (an injected ``SimulatedFailure``, or a real executor
        error) is marked failed on its handle — its error re-raises from
        ``result()`` — and every other query's schedule and results proceed
        untouched.
        """
        finished: list[QueryHandle] = []
        self._admit(finished)
        while self._running or self._in_flight:
            if self._launch_wave(finished):
                continue
            if not self._in_flight:
                raise ReproError(
                    "scheduler wedged: running queries but nothing launchable"
                )
            self._complete_next(finished)
        return finished

    def _pop_next_admission(self) -> QueryHandle:
        """The next waiting query to admit.

        Highest priority, then the tenant with the fewest lifetime admissions
        (a deficit round-robin: a tenant flooding thousands of submissions
        cannot push another tenant's single query to the back), then FIFO.
        """
        handle = min(
            self._waiting,
            key=lambda h: (
                -h.priority,
                self._tenant_admissions[h.tenant],
                h.query_id,
            ),
        )
        self._waiting.remove(handle)
        return handle

    def _admit(self, finished: list[QueryHandle]) -> None:
        while self._waiting and len(self._running) < self.config.max_concurrent_queries:
            handle = self._pop_next_admission()
            handle.admitted_at = self.now
            # Time spent waiting for an admission slot is queueing delay too.
            handle.queue_delay_seconds += self.now - handle.submitted_at
            handle.status = "running"
            self._tenant_admissions[handle.tenant] += 1
            if self.on_admit is not None:
                cached = self.on_admit(handle)
                if cached is not None:
                    # Result-cache hit: answered without a driver or a job;
                    # any admission wait is still charged as delay.
                    self._finish(handle, cached, cache_hit=True)
                    finished.append(handle)
                    continue
            handle._generator = handle._stages(handle.namespace)
            self._advance(handle, first=True)
            if handle.status == "running":
                self._running.append(handle)
            else:
                finished.append(handle)

    def _advance(self, handle: QueryHandle, first: bool = False) -> None:
        """Send the collected outcome(s) in; park at the next request.

        Requests the intermediate cache answers are replayed on arrival, so
        the handle parks only at work that needs the cluster.
        """
        payload = None if first else handle._payload()
        while True:
            try:
                item = handle._generator.send(payload)
            except StopIteration as stop:
                self._finish(handle, stop.value)
                return
            except BaseException as exc:  # SimulatedFailure and real bugs alike
                self._fail(handle, exc)
                return
            if isinstance(item, JobRequest):
                handle._group = False
                handle._requests = [item]
            else:
                requests = list(item)
                if not requests:
                    payload = []  # empty group: answer immediately
                    continue
                handle._group = True
                handle._requests = requests
            handle._outcomes = [None] * len(handle._requests)
            handle.ready_since = self.now
            try:
                self._replay_cached(handle)
            except BaseException as exc:
                self._fail(handle, exc)
                return
            if handle._has_pending():
                datasets, cost = self.executor.datasets, self.executor.cost
                handle._ready = {
                    index: (
                        request.batch_key,
                        request.virtual_cost is not None,
                        read_seconds(request.job, datasets, cost),
                    )
                    for index, request in enumerate(handle._requests)
                    if handle._outcomes[index] is None
                }
                return
            payload = handle._payload()  # every request replayed

    def _replay_cached(self, handle: QueryHandle) -> None:
        """Answer the parked requests the intermediate cache holds, now.

        Each cacheable request is looked up exactly once, when it becomes
        ready: one hit or one miss. A hit has already re-registered the
        stored materialization under the request's own names, and runs
        through :func:`run_request` at zero charge.
        """
        cache = self.executor.cache
        if cache is None:
            return  # outside a query service nothing is cached
        for index, request in enumerate(handle._requests):
            if request.cache_token is None:
                continue
            replayed = cache.fetch_intermediate(self.executor, request)
            if replayed is None:
                continue
            outcome = run_request(self.executor, request, replayed=replayed)
            handle._record_outcome(index, outcome)
            self._mark(handle, "cache-replay", f"{request.phase} replayed")

    # -- launching ------------------------------------------------------------

    def _launch_wave(self, finished: list[QueryHandle]) -> int:
        """Launch, at this instant, what the launch rule plans over every
        running query's ready requests; returns the number of launches."""
        running = {handle.query_id: handle for handle in self._running}
        ready = [
            ReadyRequest(h.query_id, index, h.priority, h.ready_since, *fixed)
            for h in self._running
            for index, fixed in h._ready.items()
        ]
        launches = self.plan(
            ready,
            len(self._in_flight),
            self.config.job_slots,
            self.executor.cluster.partitions,
            self.executor.cost.job_startup(),
        )
        for launch in launches:
            entries = [(running[q], index) for q, index in launch.branches]
            self._launch_job(entries, launch.partitions, finished)
        return len(launches)

    def _launch_job(
        self,
        entries: list[tuple[QueryHandle, int]],
        slice_partitions: int,
        finished: list[QueryHandle],
    ) -> None:
        count = len(entries)
        start = self.now
        scans: dict[str, list[int]] = {}
        for position, (handle, index) in enumerate(entries):
            del handle._ready[index]
            key = handle._requests[index].batch_key
            if key is not None:
                scans.setdefault(key, []).append(position)

        performed: list[tuple[QueryHandle, int, JobOutcome]] = []
        for position, (handle, index) in enumerate(entries):
            if handle.status != "running":
                continue  # an earlier entry of this very handle failed
            request = handle._requests[index]
            same_scan = scans.get(request.batch_key, [position])
            share = (
                LaunchShare(count, same_scan.index(position), len(same_scan))
                if count > 1
                else None
            )
            try:
                outcome = run_request(
                    self.executor, request, share, partitions=slice_partitions
                )
            except BaseException as exc:  # executor/operator errors
                self._fail(handle, exc)
                self._running.remove(handle)
                finished.append(handle)
                continue
            performed.append((handle, index, outcome))
        if not performed:
            return  # every branch failed before doing chargeable work

        duration = sum(outcome.metrics.total_seconds for _, _, outcome in performed)

        participants: list[QueryHandle] = []
        delays: dict[int, float] = {}
        for handle, _, _ in performed:
            if handle not in participants:
                participants.append(handle)
                delay = start - handle.ready_since
                handle.queue_delay_seconds += delay
                handle.ready_since = start
                if delay > 0.0:
                    delays[handle.query_id] = delay
        self.cluster_jobs += 1
        self.scans_saved += sum(len(group) - 1 for group in scans.values())

        lead_handle, lead_index, _ = performed[0]
        lead_request = lead_handle._requests[lead_index]
        if count == 1:
            label, kind = lead_request.phase, lead_request.kind
        elif [len(group) for group in scans.values()] == [count]:
            label, kind = f"scan[{lead_request.batch_key}] ×{count}", "batched-scan"
        else:
            label, kind = f"launch ×{count}", "shared-launch"
        slot = heapq.heappop(self._free_slots)
        end = start + duration
        branches = tuple((h.query_id, h._requests[i].phase) for h, i, _ in performed)
        self.timeline.record(
            TimelineEvent(
                label=label,
                kind=kind,
                start_seconds=start,
                end_seconds=end,
                queries=tuple(h.query_id for h in participants),
                branches=branches if count > 1 else (),
                queue_delays=delays,
                slot=slot,
                # one slot has no lanes to show: its timeline keeps the
                # plain four-column render (``space_shared`` stays False).
                slice_partitions=slice_partitions if self.config.job_slots > 1 else None,
                tenants=_tenants_of(participants),
            )
        )
        self._launch_order += 1
        heapq.heappush(
            self._in_flight,
            _InFlightJob(end, self._launch_order, slot, performed, participants),
        )

    # -- completion -----------------------------------------------------------

    def _complete_next(self, finished: list[QueryHandle]) -> None:
        """Advance the clock to the earliest in-flight completion."""
        job = heapq.heappop(self._in_flight)
        self.now = job.end_seconds
        heapq.heappush(self._free_slots, job.slot)
        cache = self.executor.cache
        for handle, index, outcome in job.performed:
            handle._record_outcome(index, outcome)
            # What the job stored in the intermediate cache may be replayed
            # from now on: its end is when the clock has it.
            token = handle._requests[index].cache_token
            if cache is not None and token is not None:
                cache.publish_intermediate(token)
        for handle in job.participants:
            if handle.status != "running":
                continue  # failed by a sibling launch while this job flew
            handle.ready_since = self.now
            if not handle._has_pending():
                self._advance(handle)
                if handle.status != "running":
                    self._running.remove(handle)
                    finished.append(handle)
        self._admit(finished)

    def _finish(self, handle: QueryHandle, result, cache_hit: bool = False) -> None:
        # Query-level verification (DESIGN.md §14), at zero simulated cost:
        # the recorded dataflow ledger goes through Q001-Q006 before the
        # namespace is released, and a finding fails the query. Cache hits
        # and traceless results recorded no ledger to audit.
        if (
            not cache_hit
            and isinstance(result, ExecutionResult)
            and result.trace is not None
        ):
            from repro.analysis.diagnostics import PlanVerificationError
            from repro.analysis.runtime import verify_query_completion

            diagnostics = verify_query_completion(
                self.executor,
                result.trace,
                namespace=handle.namespace,
                metrics_total=result.metrics.total_seconds,
                token_registry=self._dataflow_tokens,
                job_label=handle.label,
            )
            if diagnostics:
                self._fail(
                    handle,
                    PlanVerificationError(diagnostics, job_label=handle.label),
                )
                return
        handle.finished_at = self.now
        handle.status = "done"
        handle._result = result
        if isinstance(result, ExecutionResult):
            result.schedule = self._close_schedule(
                handle, result.metrics.total_seconds, cache_hit=cache_hit
            )
            if cache_hit:
                # A cached answer ran no cluster job and there is nothing new
                # to cache. A zero-length timeline event keeps it visible per
                # tenant.
                self._mark(handle, "cache-hit", "cache-hit")
            elif self.on_finish is not None:
                self.on_finish(handle, result)
        self._release_namespace(handle)

    def _close_schedule(
        self,
        handle: QueryHandle,
        busy_seconds: float,
        error: str | None = None,
        cache_hit: bool = False,
    ) -> ScheduleInfo:
        """Stamp the handle's schedule record at the current instant."""
        handle.schedule = info = ScheduleInfo(
            query_id=handle.query_id,
            priority=handle.priority,
            submitted_at=handle.submitted_at,
            admitted_at=(
                handle.admitted_at
                if handle.admitted_at is not None
                else handle.submitted_at
            ),
            finished_at=self.now,
            queue_delay_seconds=handle.queue_delay_seconds,
            busy_seconds=busy_seconds,
            error=error,
            tenant=handle.tenant,
            cache_hit=cache_hit,
        )
        return info

    def _mark(self, handle: QueryHandle, kind: str, what: str) -> None:
        """Record a zero-length timeline event for one query at this instant."""
        self.timeline.record(
            TimelineEvent(
                label=f"{handle.label} {what}",
                kind=kind,
                start_seconds=self.now,
                end_seconds=self.now,
                queries=(handle.query_id,),
                tenants=_tenants_of((handle,)),
            )
        )

    def _fail(self, handle: QueryHandle, error: BaseException) -> None:
        handle.finished_at = self.now
        handle.status = "failed"
        handle._error = error
        # Run the driver's finally-blocks: an executor error leaves the
        # generator suspended at its yield, and without close() its cleanup
        # never runs. close() is a no-op for an already-exhausted generator.
        generator = handle._generator
        if generator is not None:
            try:
                generator.close()
            except BaseException:
                pass  # cleanup must never mask the original failure
        self._close_schedule(
            handle, handle.charged_seconds, error=f"{type(error).__name__}: {error}"
        )
        self._mark(handle, "failed", f"failed ({type(error).__name__})")
        # A checkpoint-carrying failure (SimulatedFailure) keeps its
        # intermediates: they *are* the Section-8 recovery state that
        # ``DynamicOptimizer.resume`` continues from. Anything else is
        # unreachable: dropping it keeps failures from growing the catalogs.
        if getattr(error, "checkpoint", None) is None:
            self._release_namespace(handle)

    def _release_namespace(self, handle: QueryHandle) -> None:
        """Drop the query's namespaced intermediates + their statistics."""
        session = handle.session
        prefix = f"{handle.namespace}__"
        for name in session.datasets.names():
            if name.startswith(prefix):
                session.datasets.drop(name)
                session.statistics.remove(name)


def solo_scheduler(session: Session) -> JobScheduler:
    """A private scheduler built from the session's configuration with one
    slot, whose launch rule runs every request by itself."""
    scheduler = JobScheduler(
        session.executor, replace(session.scheduler_config, job_slots=1)
    )
    scheduler.plan = plan_alone
    return scheduler


def run_solo(
    query: Query, stages: StageSource, session: Session, namespace: str = ""
):
    """Run one query to completion, blocking, and return what it returns.

    The query is a one-query schedule on a :func:`solo_scheduler`: it owns
    the full cluster, waits for nothing, and is charged what it would be
    charged alone. It is verified, carries a schedule record and releases
    its namespace like any scheduled query, and a failure re-raises here.
    ``namespace`` is as for :meth:`JobScheduler.submit`.
    """
    scheduler = solo_scheduler(session)
    handle = scheduler.submit(
        query, stages, session, tenant=session.tenant, namespace=namespace
    )
    scheduler.run_all()
    return handle.result()
