"""The verify-on-compile gate: run the verifier before every job launches.

:func:`verify_before_launch` is called from
:func:`repro.engine.scheduler.request.run_request` — the single place a
:class:`~repro.engine.scheduler.request.JobRequest` turns into executed work
— so every job the scheduler launches, concurrent or alone, passes through
the same gate. Its job carries the logical plan it was compiled from
(``job.plan``), so each plan is checked there, once. Verification:

- charges **zero simulated seconds** (it never touches
  :class:`~repro.engine.metrics.JobMetrics` or the clock, so schedules,
  timelines and metrics are byte-identical whether or not it runs —
  ``tests/analysis/test_gate.py`` stubs the entry points out to prove it);
- accounts its real (host) wall time on the executor's
  :class:`VerifierStats` — the figure ``benchmarks/e2e`` reports as
  ``analysis.verify_share``;
- raises :class:`~repro.analysis.diagnostics.PlanVerificationError` carrying
  every diagnostic when the job is broken, *before* the job runs.

A passing check leaves no record: any finding fails the query, so a record
in a finished trace could only ever say "clean".

Two query-level entry points extend the same contract (DESIGN.md §14):

- the gate additionally extracts a per-job
  :class:`~repro.analysis.dataflow.JobDataflow` record onto the run's tracer
  (:func:`record_replay_dataflow` does the same for cache-replayed jobs,
  which never reach the gate);
- :func:`verify_query_completion` replays the recorded sequence through the
  Q001–Q006 dataflow verifier when the scheduler finishes a query — every
  finished query, since every query runs on a scheduler.

There is no switch: every job and finished query is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Host-side overhead accounting; the simulated clock (JobMetrics) is never
# involved.
from time import perf_counter
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import Diagnostic, PlanVerificationError

if TYPE_CHECKING:
    from repro.engine.executor import Executor
    from repro.engine.scheduler.request import JobRequest
    from repro.obs.trace import QueryTrace


@dataclass
class VerifierStats:
    """Aggregate gate accounting on one executor (host wall time, not simulated).

    ``jobs_verified`` counts launch-gate passes, ``queries_verified`` the
    Q001–Q006 query-completion passes; ``total_wall_seconds`` is the host
    time both took.
    """

    jobs_verified: int = 0
    queries_verified: int = 0
    diagnostics_found: int = 0
    total_wall_seconds: float = 0.0

    def record(self, seconds: float, diagnostics: int) -> None:
        self.jobs_verified += 1
        self.diagnostics_found += diagnostics
        self.total_wall_seconds += seconds

    def record_query(self, seconds: float, diagnostics: int) -> None:
        self.queries_verified += 1
        self.diagnostics_found += diagnostics
        self.total_wall_seconds += seconds


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
    from repro.analysis.verifier import verify_job

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
) -> list[Diagnostic]:
    """Replay a finished query's dataflow ledger through the Q-rule verifier.

    Called by the scheduler when a query completes (before its namespace is
    released), with the query's finished trace. Returns the diagnostics
    instead of raising so the scheduler can route them through its own
    failure path. Meters host wall time on ``queries_verified``.
    """
    from repro.analysis.dataflow import verify_query_dataflow

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
    return diagnostics
