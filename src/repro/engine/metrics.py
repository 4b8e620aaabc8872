"""Simulated-time accounting for jobs and whole query executions.

Figure 6 of the paper decomposes execution time into the baseline work, the
re-optimization overhead (writing + reading materialized intermediates and
the extra job launches), and the online-statistics overhead. The metrics
object keeps those components separate so the overhead experiments can report
them individually.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine.scheduler import ScheduleInfo
    from repro.obs.trace import QueryTrace


@dataclass
class JobMetrics:
    """Simulated seconds by activity, plus raw work counters, for one job."""

    startup: float = 0.0
    scan: float = 0.0
    compute: float = 0.0
    network: float = 0.0
    materialize: float = 0.0
    spill: float = 0.0
    stats: float = 0.0
    index: float = 0.0
    output: float = 0.0

    tuples_scanned: int = 0
    tuples_joined: int = 0
    rows_materialized: int = 0
    index_lookups: int = 0
    rows_out: int = 0
    jobs: int = 0

    _TIME_FIELDS = (
        "startup",
        "scan",
        "compute",
        "network",
        "materialize",
        "spill",
        "stats",
        "index",
        "output",
    )

    @property
    def total_seconds(self) -> float:
        # A left-to-right fold: from Python 3.12 the built-in sum of floats
        # is compensated, which moves the recorded clocks by an ulp.
        total = 0.0
        for name in self._TIME_FIELDS:
            total += getattr(self, name)
        return total

    @property
    def reoptimization_seconds(self) -> float:
        """The overhead Figure 6 attributes to re-optimization points:
        materializing/re-reading intermediates plus extra job launches."""
        return self.materialize + self.startup

    @property
    def stats_seconds(self) -> float:
        """Online statistics collection overhead (Figure 6)."""
        return self.stats

    def merge(self, other: JobMetrics) -> JobMetrics:
        """Accumulate another job's metrics into this one (in place)."""
        for f in fields(self):
            if f.name.startswith("_"):
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def copy(self) -> JobMetrics:
        clone = JobMetrics()
        clone.merge(self)
        return clone

    def breakdown(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self._TIME_FIELDS}


@dataclass
class ExecutionResult:
    """Final output of running a query under some optimizer."""

    rows: list[dict]
    metrics: JobMetrics
    plan_description: str = ""
    phases: list[str] = field(default_factory=list)
    #: structured execution trace: hierarchical spans plus
    #: estimated-vs-actual cardinality records; None only for results
    #: assembled outside the traced execution paths.
    trace: QueryTrace | None = None
    #: scheduling record stamped by the JobScheduler that ran the query
    #: (every query runs on one): admission/finish instants on the shared
    #: cluster clock and the queueing delay charged under saturation. None
    #: only for results assembled outside a scheduler; never affects
    #: ``metrics``.
    schedule: ScheduleInfo | None = None
    #: decisions (repro.core.policy.PolicyDecision) taken during this run:
    #: the feedback policy's replan triggers and widened picks, and the
    #: driver's cost rule fusing the remaining joins. Empty when none fired.
    decisions: tuple = ()

    @property
    def seconds(self) -> float:
        return self.metrics.total_seconds

    def explain_analyze(self) -> str:
        """Plan-with-actuals report; requires a captured trace.

        When the query ran through a scheduler under contention (or was
        answered from a service's result cache), the report is suffixed with
        the scheduling annotations — queueing delay and cache-hit status —
        so the gap between a query's own work and its observed latency is
        visible in the same place as the plan. A solo zero-delay run renders
        exactly as before.
        """
        body = (
            "no execution trace captured"
            if self.trace is None
            else self.trace.explain_analyze()
        )
        # Why the schedule is what it is: replans, widened picks, the fuse
        # rule's inequality. Nothing is printed for a run that decided nothing.
        for decision in self.decisions:
            body += f"\n-- decision: {decision.describe()}"
        schedule = self.schedule
        if schedule is None:
            return body
        notes = []
        if getattr(schedule, "cache_hit", False):
            notes.append(
                "answered from result cache (zero cluster work, "
                f"latency {schedule.latency_seconds:.2f}s on the shared clock)"
            )
        if schedule.queue_delay_seconds > 0.0:
            notes.append(
                f"queue delay {schedule.queue_delay_seconds:.2f}s "
                f"(submitted {schedule.submitted_at:.2f}s, "
                f"finished {schedule.finished_at:.2f}s"
                + (f", tenant {schedule.tenant!r}" if schedule.tenant else "")
                + ")"
            )
        if not notes:
            return body
        return body + "\n" + "\n".join(f"-- schedule: {note}" for note in notes)
