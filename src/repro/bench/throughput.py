"""Multi-query throughput: the scheduler experiment.

The paper's experiments run one query at a time; a production cluster serves
many. This experiment submits a batch of parameterized TPC-H join queries —
every variant carries a multi-predicate filter on ``orders`` (and every
other variant one on ``lineitem`` too), so their push-down jobs scan the
same base datasets — and compares three regimes:

- **serial**: each query executed to completion before the next starts (the
  paper's regime; total time is the sum of solo runs);
- **batched**: all queries submitted to one :class:`JobScheduler` with
  ``job_slots=1``, which interleaves their re-optimization stages and merges
  same-dataset pushdown scans into shared jobs — still one cluster job at a
  time;
- **space-shared**: the same scheduler with ``job_slots > 1``: the cluster's
  partitions are split into slices and cluster jobs of different queries
  overlap on the shared clock, so the non-scalable part of every job
  (launch, broadcasts, result output) stops serializing the batch.

Per-query answers are identical in all modes; the win is cluster-level:
fewer jobs, merged scans, and a lower makespan, at the price of per-query
queueing delay, which the report also tabulates. Failed queries (none in
the stock batch, but injectable) keep their row in the table — flagged with
the error — instead of silently vanishing from the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import workbench
from repro.engine.scheduler import JobScheduler, QueryHandle, SchedulerConfig
from repro.lang.ast import Query
from repro.lang.builder import QueryBuilder
from repro.optimizers import make_optimizer


def throughput_queries(count: int = 4) -> list[tuple[str, Query]]:
    """``count`` parameterized variants of an orders/customer/lineitem join.

    Variant ``i`` selects a shifted one-year order-date window (plus the
    finished-status predicate), making ``orders`` a push-down candidate in
    every variant; odd variants also filter ``lineitem`` on a quantity
    band, adding a second shareable scan.
    """
    variants = []
    for i in range(count):
        low = (i % 5) * 365
        builder = (
            QueryBuilder()
            .select("c.c_name", "o.o_totalprice", "l.l_extendedprice")
            .from_table("lineitem", "l")
            .from_table("orders", "o")
            .from_table("customer", "c")
            .join("l.l_orderkey", "o.o_orderkey")
            .join("o.o_custkey", "c.c_custkey")
            .where_between("o.o_orderdate", low, low + 364)
            .where_eq("o.o_orderstatus", "F")
        )
        if i % 2 == 1:
            builder = builder.where_between("l.l_quantity", 1, 25 + i)
        variants.append((f"T{i + 1}", builder.build()))
    return variants


@dataclass(frozen=True)
class QueryLine:
    """One query's outcome in one execution mode."""

    label: str
    rows: int
    seconds: float
    queue_delay_seconds: float
    #: set when the query failed ("ExceptionType: message"); its row stays
    #: in the table with the work it charged before dying.
    error: str | None = None


@dataclass(frozen=True)
class ThroughputReport:
    """Serial / batched / space-shared cluster accounting for one batch."""

    scale_factor: int
    serial_seconds: float
    serial_jobs: int
    #: batched mode: one scheduler, job_slots=1 (merged scans, serial jobs)
    concurrent_seconds: float
    concurrent_jobs: int
    scans_saved: int
    #: space-shared mode: job_slots partition-slice lanes
    job_slots: int
    spaceshared_seconds: float
    spaceshared_jobs: int
    spaceshared_scans_saved: int
    serial_lines: list[QueryLine]
    concurrent_lines: list[QueryLine]
    spaceshared_lines: list[QueryLine]
    timeline_render: str

    @property
    def seconds_saved(self) -> float:
        return self.serial_seconds - self.concurrent_seconds

    @property
    def jobs_saved(self) -> int:
        return self.serial_jobs - self.concurrent_jobs

    @property
    def spaceshared_seconds_saved(self) -> float:
        return self.serial_seconds - self.spaceshared_seconds


def _lines_for(handles: list[QueryHandle]) -> list[QueryLine]:
    """One table row per handle; failed queries keep their row, flagged."""
    lines = []
    for handle in handles:
        schedule = handle.schedule
        if handle.failed:
            lines.append(
                QueryLine(
                    handle.label,
                    rows=0,
                    seconds=schedule.busy_seconds if schedule else 0.0,
                    queue_delay_seconds=(
                        schedule.queue_delay_seconds if schedule else 0.0
                    ),
                    error=schedule.error if schedule else repr(handle.error),
                )
            )
            continue
        result = handle.result()
        lines.append(
            QueryLine(
                handle.label,
                len(result.rows),
                result.seconds,
                result.schedule.queue_delay_seconds,
            )
        )
    return lines


def _check_rows(reference: list[QueryLine], lines: list[QueryLine], mode: str) -> None:
    for expected, actual in zip(reference, lines, strict=True):
        if actual.error is not None:
            continue
        if expected.rows != actual.rows:
            raise AssertionError(
                f"{expected.label}: {mode} run changed the answer "
                f"({expected.rows} rows serial, {actual.rows} {mode})"
            )


def run_throughput(
    scale_factor: int = 10,
    query_count: int = 4,
    max_concurrent: int = 4,
    seed: int = 42,
    job_slots: int = 2,
) -> ThroughputReport:
    """Run the batch serially, batched, and space-shared on one session."""
    session = workbench("tpch", scale_factor, seed).session
    queries = throughput_queries(query_count)
    serial_lines = []
    serial_seconds = 0.0
    serial_jobs = 0
    try:
        for label, query in queries:
            result = session.execute(query)
            serial_lines.append(
                QueryLine(label, len(result.rows), result.seconds, 0.0)
            )
            serial_seconds += result.seconds
            serial_jobs += result.metrics.jobs
    finally:
        session.reset_intermediates()

    def scheduled_run(slots: int) -> tuple[JobScheduler, list[QueryLine]]:
        scheduler = JobScheduler(
            session.executor,
            SchedulerConfig(max_concurrent_queries=max_concurrent, job_slots=slots),
        )
        try:
            handles = [
                scheduler.submit(
                    query, make_optimizer("dynamic"), session, label=label
                )
                for label, query in queries
            ]
            scheduler.run_all()
            return scheduler, _lines_for(handles)
        finally:
            session.reset_intermediates()

    batched, concurrent_lines = scheduled_run(1)
    spaceshared, spaceshared_lines = scheduled_run(job_slots)

    _check_rows(serial_lines, concurrent_lines, "batched")
    _check_rows(serial_lines, spaceshared_lines, "space-shared")

    return ThroughputReport(
        scale_factor=scale_factor,
        serial_seconds=serial_seconds,
        serial_jobs=serial_jobs,
        concurrent_seconds=batched.timeline.makespan_seconds,
        concurrent_jobs=batched.cluster_jobs,
        scans_saved=batched.scans_saved,
        job_slots=job_slots,
        spaceshared_seconds=spaceshared.timeline.makespan_seconds,
        spaceshared_jobs=spaceshared.cluster_jobs,
        spaceshared_scans_saved=spaceshared.scans_saved,
        serial_lines=serial_lines,
        concurrent_lines=concurrent_lines,
        spaceshared_lines=spaceshared_lines,
        timeline_render=spaceshared.timeline.render(),
    )


def _query_table(lines: list[QueryLine]) -> list[str]:
    rows = [f"  {'query':6s} {'rows':>6s} {'own s':>10s} {'queue-delay s':>14s}"]
    for line in lines:
        row = (
            f"  {line.label:6s} {line.rows:6d} {line.seconds:10.2f}"
            f" {line.queue_delay_seconds:14.2f}"
        )
        if line.error is not None:
            row += f"  FAILED: {line.error}"
        rows.append(row)
    return rows


def format_throughput(report: ThroughputReport) -> str:
    """Render the three-mode comparison plus the space-shared timeline."""
    spaceshared_label = f"sliced ×{report.job_slots}"
    lines = [
        f"multi-query throughput @ SF {report.scale_factor} "
        f"({len(report.serial_lines)} concurrent TPC-H variants)",
        f"  {'mode':12s} {'makespan s':>10s} {'jobs':>6s} {'scans saved':>12s}",
        f"  {'serial':12s} {report.serial_seconds:10.2f} {report.serial_jobs:6d}"
        f" {0:12d}",
        f"  {'concurrent':12s} {report.concurrent_seconds:10.2f}"
        f" {report.concurrent_jobs:6d} {report.scans_saved:12d}",
        f"  {spaceshared_label:12s} {report.spaceshared_seconds:10.2f}"
        f" {report.spaceshared_jobs:6d} {report.spaceshared_scans_saved:12d}",
        f"  batching saved {report.seconds_saved:.2f} simulated seconds and"
        f" {report.jobs_saved} cluster jobs over serial;"
        f" space sharing ({report.job_slots} slots) saved"
        f" {report.spaceshared_seconds_saved:.2f} s",
        "",
        f"  per-query, space-shared ({report.job_slots} partition-slice lanes):",
    ]
    lines.extend(_query_table(report.spaceshared_lines))
    lines.append("")
    lines.append("  shared cluster timeline (space-shared mode):")
    for row in report.timeline_render.splitlines():
        lines.append(f"  {row}")
    return "\n".join(lines)
