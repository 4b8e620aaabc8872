"""The verify-on-compile gate: run the verifier before every job launches.

:func:`verify_before_launch` is called from
:func:`repro.engine.scheduler.request.run_request` — the single place a
:class:`~repro.engine.scheduler.request.JobRequest` turns into executed work
— so every job the scheduler launches, concurrent or alone, passes through
the same gate. Verification:

- charges **zero simulated seconds** (it never touches
  :class:`~repro.engine.metrics.JobMetrics` or the clock, so schedules,
  timelines and metrics are byte-identical whether or not it runs —
  ``tests/analysis/test_gate.py`` stubs the entry points out to prove it);
- accounts its real (host) wall time on the executor's
  :class:`VerifierStats` — the figure ``benchmarks/e2e`` reports as
  ``analysis.verify_share``;
- records what it checked in the run's trace (deterministic content only);
- raises :class:`~repro.analysis.diagnostics.PlanVerificationError` carrying
  every diagnostic when the job is broken, *before* the job runs.

Three query-level entry points extend the same contract (DESIGN.md §14):

- the gate additionally extracts a per-job
  :class:`~repro.analysis.dataflow.JobDataflow` record onto the run's tracer
  (:func:`record_replay_dataflow` does the same for cache-replayed jobs,
  which never reach the gate);
- :func:`verify_query_completion` replays the recorded sequence through the
  Q001–Q006 dataflow verifier when the scheduler finishes a query — every
  finished query, since every query runs on a scheduler;
- :func:`verify_plan_before_jobgen` runs the P-rule plan checks on logical
  :class:`~repro.algebra.plan.PlanNode` trees at plan time, before jobgen.

There is no switch: every job, plan and finished query is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Host-side overhead accounting; the simulated clock (JobMetrics) is never
# involved.
from time import perf_counter
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import Diagnostic, PlanVerificationError

if TYPE_CHECKING:
    from repro.algebra.plan import PlanNode
    from repro.engine.executor import Executor
    from repro.engine.scheduler.request import JobRequest
    from repro.obs.trace import QueryTrace
    from repro.stats.catalog import StatisticsCatalog


@dataclass
class VerifierStats:
    """Aggregate gate accounting on one executor (host wall time, not simulated).

    ``jobs_verified``/``wall_seconds`` cover the per-job gate and the
    plan-time P-rule checks; ``queries_verified``/``query_wall_seconds``
    meter the Q001–Q006 query-completion pass separately.
    """

    jobs_verified: int = 0
    diagnostics_found: int = 0
    wall_seconds: float = 0.0
    plans_verified: int = 0
    queries_verified: int = 0
    query_wall_seconds: float = 0.0

    def record(self, seconds: float, diagnostics: int) -> None:
        self.jobs_verified += 1
        self.diagnostics_found += diagnostics
        self.wall_seconds += seconds

    def record_plan(self, seconds: float, diagnostics: int) -> None:
        self.plans_verified += 1
        self.diagnostics_found += diagnostics
        self.wall_seconds += seconds

    def record_query(self, seconds: float, diagnostics: int) -> None:
        self.queries_verified += 1
        self.diagnostics_found += diagnostics
        self.query_wall_seconds += seconds

    @property
    def total_wall_seconds(self) -> float:
        return self.wall_seconds + self.query_wall_seconds


def verify_before_launch(executor: Executor, request: JobRequest) -> None:
    """Verify ``request.job`` against the executor's catalogs; raise on findings.

    The estimate-based checks read the run's working catalog — the exact
    statistics the planner saw, including pilot-run per-alias overrides. As
    a side effect the job's dataflow record (reads/writes/scans/probes) is
    appended to the run's tracer for the query-completion pass.
    """
    job = request.job
    if job is None:
        return
    # Imported lazily: the verifier pulls in the algebra/operator modules,
    # which import the engine package, which imports this module — keeping
    # runtime.py light breaks that cycle at package-init time.
    from repro.analysis.dataflow import dataflow_of
    from repro.analysis.verifier import RULES_CHECKED_PER_JOB, verify_job

    run = request.run
    started = perf_counter()
    diagnostics: list[Diagnostic] = verify_job(
        job,
        executor.datasets,
        statistics=run.statistics,
        cluster=executor.cluster,
        cost=executor.cost,
    )
    run.tracer.record_dataflow(dataflow_of(job, request))
    executor.verifier_stats.record(perf_counter() - started, len(diagnostics))
    run.tracer.record_verification(
        phase=request.phase,
        job_label=job.label,
        rules_checked=RULES_CHECKED_PER_JOB,
        codes=tuple(d.code for d in diagnostics),
    )
    if diagnostics:
        raise PlanVerificationError(diagnostics, job_label=job.label)


def record_replay_dataflow(request: JobRequest) -> None:
    """Record a cache-replayed job's dataflow (the replay skips the gate).

    A cache hit re-registers the job's outputs without launching anything,
    but the query-level ledger still needs the write: otherwise a later
    Reader of the replayed intermediate would trip Q002 and the replayed
    sink itself Q001. Zero simulated cost; content deterministic.
    """
    job = request.job
    if job is None:
        return
    from repro.analysis.dataflow import dataflow_of

    record = dataflow_of(job, request)
    request.run.tracer.record_dataflow(replace(record, replayed=True))


def verify_query_completion(
    executor: Executor,
    trace: QueryTrace,
    namespace: str,
    metrics_total: float | None = None,
    token_registry: dict[str, tuple[str, ...]] | None = None,
    job_label: str = "",
) -> list[Diagnostic]:
    """Replay a finished query's dataflow ledger through the Q-rule verifier.

    Called by the scheduler when a query completes (before its namespace is
    released), with the query's finished trace. Returns the diagnostics
    instead of raising so the scheduler can route them through its own
    failure path. Appends one ``phase="query"`` verification record to the
    trace and meters host wall time on ``queries_verified`` /
    ``query_wall_seconds``.
    """
    from repro.analysis.dataflow import QUERY_RULES_CHECKED, verify_query_dataflow
    from repro.obs.trace import VerificationRecord

    started = perf_counter()
    diagnostics = verify_query_dataflow(
        trace.dataflows,
        namespace=namespace,
        token_registry=token_registry,
        trace=trace,
        metrics_total=metrics_total,
    )
    executor.verifier_stats.record_query(
        perf_counter() - started, len(diagnostics)
    )
    trace.verifications.append(
        VerificationRecord(
            phase="query",
            job_label=job_label,
            rules_checked=QUERY_RULES_CHECKED,
            codes=tuple(d.code for d in diagnostics),
        )
    )
    return diagnostics


def verify_plan_before_jobgen(
    executor: Executor, plan: PlanNode, statistics: StatisticsCatalog
) -> None:
    """Run the P-rule checks on a logical plan at plan time, before jobgen.

    The dynamic driver calls this on every join the policy picks and on
    every final/single-shot plan — so a broken logical plan is caught at
    the re-optimization point that produced it, not two layers later when
    the compiled job hits the launch gate. ``statistics`` is the run's
    working catalog. Zero simulated cost; host time metered into
    ``plans_verified``/``wall_seconds``.
    """
    from repro.analysis.verifier import verify_plan

    started = perf_counter()
    diagnostics = verify_plan(
        plan,
        executor.datasets,
        statistics=statistics,
        cluster=executor.cluster,
        cost=executor.cost,
    )
    executor.verifier_stats.record_plan(
        perf_counter() - started, len(diagnostics)
    )
    if diagnostics:
        raise PlanVerificationError(diagnostics, job_label=plan.describe())
