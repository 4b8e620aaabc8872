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

The gate only checks: it writes nothing to the run's trace. A passing
check leaves no record (any finding fails the query, so a record in a
finished trace could only ever say "clean"), and the job's dataflow record
is set on its phase span by ``run_request`` itself, before the gate runs.

:func:`verify_query_completion` extends the same contract to the whole
query (DESIGN.md §14): when the scheduler finishes a query — every finished
query, since every query runs on a scheduler — it replays the dataflow
records on the trace's phase spans through the Q001–Q006 dataflow verifier.
(The rewiring half of Q006 runs earlier, inside the transfer prelude, where
the rewrite is made.)

There is no switch: every job and finished query is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    statistics the planner saw, including pilot-run per-alias overrides.
    Only the executor's :class:`VerifierStats` are written.
    """
    job = request.job
    if job is None:
        return
    # Imported lazily: the verifier pulls in the algebra/operator modules,
    # which import the engine package, which imports this module — keeping
    # runtime.py light breaks that cycle at package-init time.
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
    executor.verifier_stats.record(perf_counter() - started, len(diagnostics))
    if diagnostics:
        raise PlanVerificationError(diagnostics, job_label=job.label)


def verify_query_completion(
    executor: Executor,
    trace: QueryTrace,
    namespace: str,
    metrics_total: float | None = None,
    token_registry: dict[str, tuple[str, ...]] | None = None,
) -> list[Diagnostic]:
    """Replay a finished query's dataflow records through the Q-rule verifier.

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
