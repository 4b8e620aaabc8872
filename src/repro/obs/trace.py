"""Hierarchical execution spans and estimate-accuracy records.

A :class:`Tracer` is threaded through the driver and executor and builds one
:class:`QueryTrace` per query execution:

- the **query** span covers the whole run;
- one **phase** span per driver phase (``pushdown:x``, ``join:a+b``,
  ``final``, ``pilot:x``, ``single-shot``, or a single-job label), matching
  ``ExecutionResult.phases`` one-to-one;
- one **operator** span per physical operator run, carrying the
  simulated-seconds cost delta, counter deltas (tuples scanned/joined, index
  lookups, rows materialized) and the operator's output cardinality.

Span timestamps live on the *simulated* clock: a span's start/end are the
cumulative simulated seconds the execution had accrued at that point. The
tracer only ever reads :class:`~repro.engine.metrics.JobMetrics`; it never
charges a cost, so tracing adds zero simulated seconds.

Whenever an operator that carries a compile-time cardinality estimate
(join operators annotated by ``compile_plan``) finishes, the tracer appends
an :class:`EstimateRecord` comparing the estimate against the measured
output — the per-re-optimization-point Q-error the paper's argument rests
on.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter

#: JobMetrics attribute names mirrored into span cost / counter deltas.
TIME_COMPONENTS = (
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
COUNTER_COMPONENTS = (
    "tuples_scanned",
    "tuples_joined",
    "rows_materialized",
    "index_lookups",
    "rows_out",
)
_TIMES = attrgetter(*TIME_COMPONENTS)
_COUNTERS = attrgetter(*COUNTER_COMPONENTS)


def q_error(estimated_rows: float, actual_rows: float) -> float:
    """The symmetric estimation-error factor ``max(est/act, act/est)``.

    Both-empty is a perfect estimate (1.0); one-sided emptiness is an
    unbounded miss (``inf``) — the convention of the Q-error literature.
    """
    if estimated_rows <= 0.0 and actual_rows <= 0.0:
        return 1.0
    if estimated_rows <= 0.0 or actual_rows <= 0.0:
        return float("inf")
    return max(estimated_rows / actual_rows, actual_rows / estimated_rows)


@dataclass
class EstimateRecord:
    """One estimated-vs-actual cardinality comparison (modeled rows)."""

    phase: str
    operator: str
    estimated_rows: float
    actual_rows: float

    @property
    def q_error(self) -> float:
        return q_error(self.estimated_rows, self.actual_rows)

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "operator": self.operator,
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "q_error": self.q_error,
        }


@dataclass(frozen=True)
class VerificationRecord:
    """One verify-on-compile gate pass (DESIGN.md §9).

    Recorded when the plan/job verifier checks a job before launch. Content
    is fully deterministic — rule counts and diagnostic codes, never wall
    time — so traces stay byte-comparable across runs and schedules.
    """

    phase: str
    job_label: str
    rules_checked: int
    codes: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.codes

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "job_label": self.job_label,
            "rules_checked": self.rules_checked,
            "codes": list(self.codes),
        }


@dataclass
class Span:
    """One node of the trace tree."""

    name: str
    kind: str  # "query" | "phase" | "operator"
    start_seconds: float
    end_seconds: float = 0.0
    rows_out: int = 0
    modeled_rows_out: float = 0.0
    estimated_rows: float | None = None
    cost: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_seconds(self) -> float:
        return max(0.0, self.end_seconds - self.start_seconds)

    @property
    def self_seconds(self) -> float:
        """Simulated seconds this span charged itself (cost delta total)."""
        return sum(self.cost.values())

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
            "rows_out": self.rows_out,
            "modeled_rows_out": self.modeled_rows_out,
        }
        if self.estimated_rows is not None:
            out["estimated_rows"] = self.estimated_rows
        if self.cost:
            out["cost"] = dict(self.cost)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


#: An open operator span and the metrics' time and counter components at its
#: start (in TIME_COMPONENTS / COUNTER_COMPONENTS order).
OperatorToken = tuple[Span, tuple, tuple]


class Tracer:
    """Builds one :class:`QueryTrace` while a query executes.

    The tracer keeps a span stack (query at the bottom, then the open phase,
    then the in-flight operators) and a ``base_seconds`` cursor — the
    cumulative simulated seconds of all *completed* jobs. Callers sync the
    cursor after merging each job's metrics; operator spans position
    themselves at ``base_seconds + <in-job metrics so far>``.
    """

    def __init__(self, query_label: str = "query") -> None:
        self.root = Span(name=query_label, kind="query", start_seconds=0.0)
        self.base_seconds = 0.0
        self.estimates: list[EstimateRecord] = []
        self.verifications: list[VerificationRecord] = []
        #: query-level dataflow records (JobDataflow / TransferSummary from
        #: repro.analysis.dataflow — typed loosely to avoid an import cycle).
        self.dataflows: list = []
        self._stack: list[Span] = [self.root]
        self._phase_names: list[str] = []
        self._finished = False

    # -- clock ----------------------------------------------------------------

    def sync(self, cumulative_seconds: float) -> None:
        """Move the simulated clock to the run's cumulative total so far."""
        self.base_seconds = cumulative_seconds

    # -- phases ---------------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Open a phase span covering one driver phase (usually one job)."""
        span = Span(name=name, kind="phase", start_seconds=self.base_seconds)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        self._phase_names.append(name)
        try:
            yield span
        finally:
            span.end_seconds = self.base_seconds
            self._phase_names.pop()
            self._stack.pop()

    @property
    def current_phase(self) -> str:
        return self._phase_names[-1] if self._phase_names else self.root.name

    # -- operators ------------------------------------------------------------

    def begin_operator(self, label: str, metrics) -> OperatorToken:
        """Open an operator span; returns the span and a metrics snapshot."""
        span = Span(
            name=label,
            kind="operator",
            start_seconds=self.base_seconds + metrics.total_seconds,
        )
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span, _TIMES(metrics), _COUNTERS(metrics)

    def end_operator(
        self,
        token: OperatorToken,
        metrics,
        rows_out: int,
        modeled_rows_out: float,
        estimated_rows: float | None = None,
    ) -> None:
        """Close an operator span: cost/counter deltas + output cardinality.

        Deltas are *exclusive* of child operators (their own deltas are
        subtracted), so each span reports what that operator itself charged.
        If the operator carried a compile-time cardinality estimate, an
        :class:`EstimateRecord` for the enclosing phase is appended.
        """
        span, times, counters = token
        span.end_seconds = self.base_seconds + metrics.total_seconds
        # Exclusive deltas: subtract everything the child *subtrees* charged
        # (each descendant span already holds its own exclusive share),
        # summed in pre-order as ``walk`` visits them.
        child_cost: dict[str, float] = {}
        child_counters: dict[str, int] = {}
        pending = span.children[::-1]
        while pending:
            descendant = pending.pop()
            for key, value in descendant.cost.items():
                child_cost[key] = child_cost.get(key, 0.0) + value
            for key, value in descendant.counters.items():
                child_counters[key] = child_counters.get(key, 0) + value
            pending.extend(reversed(descendant.children))
        for name, now, before in zip(TIME_COMPONENTS, _TIMES(metrics), times):
            delta = now - before - child_cost.get(name, 0.0)
            if delta:
                span.cost[name] = delta
        for name, now, before in zip(COUNTER_COMPONENTS, _COUNTERS(metrics), counters):
            delta = now - before - child_counters.get(name, 0)
            if delta:
                span.counters[name] = delta
        span.rows_out = rows_out
        span.modeled_rows_out = modeled_rows_out
        span.estimated_rows = estimated_rows
        self._stack.pop()
        if estimated_rows is not None:
            self.estimates.append(
                EstimateRecord(
                    phase=self.current_phase,
                    operator=span.name,
                    estimated_rows=estimated_rows,
                    actual_rows=modeled_rows_out,
                )
            )

    def latest_estimate(self, phase: str | None = None) -> EstimateRecord | None:
        """The most recent estimate record (optionally within ``phase``).

        Operator spans close bottom-up, so within a phase the outermost
        join's record is appended last — for a join stage this is the
        stage's root estimate. This is the zero-cost read the feedback
        policy uses right after a materialized stage completes.
        """
        for record in reversed(self.estimates):
            if phase is None or record.phase == phase:
                return record
        return None

    def record_estimate(
        self,
        phase: str,
        operator: str,
        estimated_rows: float,
        actual_rows: float,
    ) -> None:
        """Append an estimate-accuracy record directly (non-operator points,
        e.g. the measured cardinality of a push-down materialization)."""
        self.estimates.append(
            EstimateRecord(
                phase=phase,
                operator=operator,
                estimated_rows=estimated_rows,
                actual_rows=actual_rows,
            )
        )

    def record_verification(
        self,
        phase: str,
        job_label: str,
        rules_checked: int,
        codes: tuple[str, ...] = (),
    ) -> None:
        """Append a verify-on-compile gate record (zero simulated cost)."""
        self.verifications.append(
            VerificationRecord(
                phase=phase,
                job_label=job_label,
                rules_checked=rules_checked,
                codes=codes,
            )
        )

    def record_dataflow(self, record) -> None:
        """Append a query-level dataflow record (zero simulated cost).

        ``record`` is a :class:`repro.analysis.dataflow.JobDataflow` or
        :class:`~repro.analysis.dataflow.TransferSummary`; the query-level
        verifier replays the sequence when the query completes. Content is
        deterministic (names and fingerprints, never wall time).
        """
        self.dataflows.append(record)

    # -- completion -----------------------------------------------------------

    def finish(self) -> QueryTrace:
        """Close the query span and package the trace (idempotent)."""
        self._finished = True
        self.root.end_seconds = self.base_seconds
        return QueryTrace(
            root=self.root,
            estimates=list(self.estimates),
            verifications=list(self.verifications),
            dataflows=list(self.dataflows),
        )


@dataclass
class QueryTrace:
    """The completed trace of one query execution."""

    root: Span
    estimates: list[EstimateRecord] = field(default_factory=list)
    #: verify-on-compile gate passes, one per verified job (DESIGN.md §9).
    verifications: list["VerificationRecord"] = field(default_factory=list)
    #: per-job dataflow records fed to the query-level verifier (§14);
    #: JobDataflow / TransferSummary instances, loosely typed to avoid an
    #: import cycle with repro.analysis.
    dataflows: list = field(default_factory=list)

    def spans(self) -> list[Span]:
        return list(self.root.walk())

    def phase_spans(self) -> list[Span]:
        """Phase spans in execution order (parallels ExecutionResult.phases)."""
        return [span for span in self.root.walk() if span.kind == "phase"]

    def estimates_for(self, phase: str) -> list[EstimateRecord]:
        return [record for record in self.estimates if record.phase == phase]

    def final_estimate(self) -> EstimateRecord | None:
        """The root join's record of the last job (the final-stage estimate).

        Operator spans close bottom-up, so within the last phase the
        outermost join's record is appended last.
        """
        return self.estimates[-1] if self.estimates else None

    def final_q_error(self) -> float | None:
        record = self.final_estimate()
        return record.q_error if record is not None else None

    def max_q_error(self) -> float | None:
        if not self.estimates:
            return None
        return max(record.q_error for record in self.estimates)

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "query": self.root.name,
            "total_seconds": self.root.end_seconds,
            "spans": self.root.to_dict(),
            "estimates": [record.to_dict() for record in self.estimates],
        }
        if self.verifications:
            out["verifications"] = [
                record.to_dict() for record in self.verifications
            ]
        if self.dataflows:
            out["dataflows"] = [record.to_dict() for record in self.dataflows]
        return out

    def to_json(self, indent: int | None = None) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, default=float)

    def to_chrome_trace(self) -> str:
        """Chrome ``chrome://tracing`` / Perfetto JSON (complete events).

        Simulated seconds map to microseconds so the viewer's timeline reads
        directly in simulated time.
        """
        import json

        events = []
        for span in self.root.walk():
            args: dict = {"kind": span.kind, "rows_out": span.rows_out}
            if span.estimated_rows is not None:
                args["estimated_rows"] = span.estimated_rows
                args["q_error"] = q_error(span.estimated_rows, span.modeled_rows_out)
            if span.cost:
                args["cost"] = dict(span.cost)
            if span.counters:
                args["counters"] = dict(span.counters)
            events.append(
                {
                    "name": span.name,
                    "cat": span.kind,
                    "ph": "X",
                    "ts": span.start_seconds * 1e6,
                    "dur": span.duration_seconds * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})

    def explain_analyze(self) -> str:
        """Human-readable plan-with-actuals report (EXPLAIN ANALYZE style)."""
        from repro.obs.report import render_explain_analyze

        return render_explain_analyze(self)
