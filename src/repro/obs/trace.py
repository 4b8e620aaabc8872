"""Hierarchical execution spans and estimate-accuracy records.

A :class:`Tracer` is threaded through the driver and executor and builds one
:class:`QueryTrace` per query execution:

- the **query** span covers the whole run;
- one **phase** span per driver phase (``pushdown:x``, ``join:a+b``,
  ``final``, ``pilot:x``, or a single-job label), matching
  ``ExecutionResult.phases`` one-to-one;
- one **operator** span per physical operator run, carrying the
  simulated-seconds cost delta, counter deltas (tuples scanned/joined, index
  lookups, rows materialized) and the operator's output cardinality. A
  virtual-cost pass (pilot sample, sketch pass, transfer filter build) runs
  no operator, so its phase span carries its charge and tuples scanned.

Span timestamps live on the *simulated* clock: a span's start/end are the
cumulative simulated seconds the execution had accrued at that point. The
tracer only ever reads :class:`~repro.engine.metrics.JobMetrics`; it never
charges a cost, so tracing adds zero simulated seconds.

A span that carries a cardinality estimate holds it next to its measured
output: a join operator annotated by ``compile_plan``, and a push-down or
transfer phase span, whose request carried the statistics' estimate of the
job's output. :func:`estimate_records` reads each such span as one
:class:`EstimateRecord` — the per-re-optimization-point Q-error the paper's
argument rests on.

A phase span also carries its job's
:class:`~repro.analysis.dataflow.JobDataflow` — what the job reads, writes,
scans and probes, or which Bloom filters a transfer build pass built —
written by :func:`~repro.engine.scheduler.request.run_request` when it opens
the span. :func:`dataflow_records` reads them in open order for the
query-level verifier (DESIGN.md §14); a trace keeps no record beside its
span tree.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.dataflow import JobDataflow
    from repro.engine.metrics import JobMetrics

#: JobMetrics attribute names mirrored into span cost / counter deltas; the
#: time components in the order ``JobMetrics.total_seconds`` adds them.
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
    #: a phase span's job dataflow (reads/writes/scans/probes/builds), set
    #: by ``run_request``; the query-level verifier's input, exported by
    #: :meth:`QueryTrace.to_dict` under ``"dataflows"``
    dataflow: JobDataflow | None = None

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


def estimate_records(root: Span) -> list[EstimateRecord]:
    """The estimate-accuracy records of the trace under ``root``.

    One record per span that carries ``estimated_rows``, against its
    ``modeled_rows_out``, under the name of the phase it ran in. Spans are
    read in closing order: children before their parent, so within a phase
    the outermost join follows the joins below it and a phase span's own
    (request) estimate comes last.
    """
    records: list[EstimateRecord] = []

    def visit(span: Span, phase: str) -> None:
        for child in span.children:
            visit(child, child.name if child.kind == "phase" else phase)
        if span.estimated_rows is not None:
            actual = span.modeled_rows_out
            records.append(EstimateRecord(phase, span.name, span.estimated_rows, actual))

    visit(root, root.name)
    return records


def dataflow_records(root: Span) -> list[JobDataflow]:
    """The dataflow records of the trace under ``root``: each phase span's
    job dataflow, in the order the phases opened — the sequence the
    query-level verifier replays (DESIGN.md §14)."""
    return [span.dataflow for span in root.walk() if span.dataflow is not None]


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
        self._stack: list[Span] = [self.root]

    # -- clock ----------------------------------------------------------------

    def sync(self, cumulative_seconds: float) -> None:
        """Move the simulated clock to the run's cumulative total so far."""
        self.base_seconds = cumulative_seconds

    # -- phases ---------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[Span]:
        """Open a phase span covering one driver phase (usually one job)."""
        span = Span(name=name, kind="phase", start_seconds=self.base_seconds)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_seconds = self.base_seconds
            self._stack.pop()

    # -- operators ------------------------------------------------------------

    def begin_operator(self, label: str, metrics: JobMetrics) -> OperatorToken:
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
        metrics: JobMetrics,
        rows_out: int,
        modeled_rows_out: float,
        estimated_rows: float | None = None,
    ) -> None:
        """Close an operator span: cost/counter deltas + output cardinality.

        Deltas are *exclusive* of child operators (their own deltas are
        subtracted), so each span reports what that operator itself charged.
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

    # -- completion -----------------------------------------------------------

    def finish(self) -> QueryTrace:
        """Close the query span and package the trace (idempotent)."""
        self.root.end_seconds = self.base_seconds
        return QueryTrace(root=self.root)


@dataclass
class QueryTrace:
    """The completed trace of one query execution."""

    root: Span

    def spans(self) -> list[Span]:
        return list(self.root.walk())

    def phase_spans(self) -> list[Span]:
        """Phase spans in execution order (parallels ExecutionResult.phases)."""
        return [span for span in self.root.walk() if span.kind == "phase"]

    @property
    def estimates(self) -> list[EstimateRecord]:
        """Every estimate record, read off the spans (:func:`estimate_records`)."""
        return estimate_records(self.root)

    @property
    def dataflows(self) -> list[JobDataflow]:
        """Every dataflow record, read off the spans (:func:`dataflow_records`)."""
        return dataflow_records(self.root)

    def estimates_for(self, phase: str) -> list[EstimateRecord]:
        return [record for record in self.estimates if record.phase == phase]

    def final_estimate(self) -> EstimateRecord | None:
        """The root join's record of the last job (the final-stage estimate).

        Operator spans close bottom-up, so within the last phase the
        outermost join's record comes last.
        """
        estimates = self.estimates
        return estimates[-1] if estimates else None

    def final_q_error(self) -> float | None:
        record = self.final_estimate()
        return record.q_error if record is not None else None

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "query": self.root.name,
            "total_seconds": self.root.end_seconds,
            "spans": self.root.to_dict(),
            "estimates": [record.to_dict() for record in self.estimates],
        }
        dataflows = dataflow_records(self.root)
        if dataflows:
            out["dataflows"] = [record.to_dict() for record in dataflows]
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
