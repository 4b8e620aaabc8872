"""Rendering of query traces: EXPLAIN ANALYZE text and Q-error summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.trace import QueryTrace, Span, q_error


@dataclass(frozen=True)
class ExplainReport:
    """Structured result of :meth:`repro.session.Session.explain`.

    Callers historically parsed the plan text; the fields make the strategy,
    phase list, simulated cost, and any policy decisions addressable while
    ``str(report)`` stays the plan description for drop-in compatibility.
    """

    strategy: str
    plan_description: str
    simulated_seconds: float
    phases: tuple[str, ...] = ()
    decisions: tuple = ()
    #: verify-on-compile gate summary (DESIGN.md §9): how many jobs the plan
    #: verifier checked during this execution and every diagnostic code it
    #: raised (empty == all jobs verified clean).
    verified_jobs: int = 0
    diagnostics: tuple[str, ...] = ()

    def __str__(self) -> str:
        return self.plan_description

    def describe(self) -> str:
        """Multi-line summary: plan, phases, cost, verifier, decisions."""
        lines = [
            f"strategy: {self.strategy}",
            f"plan: {self.plan_description}",
            f"simulated seconds: {self.simulated_seconds:.2f}",
        ]
        if self.phases:
            lines.append("phases: " + " -> ".join(self.phases))
        if self.verified_jobs:
            verdict = (
                "clean" if not self.diagnostics else ", ".join(self.diagnostics)
            )
            lines.append(
                f"verifier: {self.verified_jobs} job(s) checked — {verdict}"
            )
        for decision in self.decisions:
            lines.append(f"decision: {decision.describe()}")
        return "\n".join(lines)


def _format_rows(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.1f}"


def _format_q(value: float) -> str:
    return "inf" if value == float("inf") else f"{value:.2f}"


def _operator_line(span: Span, depth: int) -> str:
    parts = [
        "  " * depth + span.name,
        f"rows={_format_rows(span.modeled_rows_out)}",
    ]
    if span.estimated_rows is not None:
        q = q_error(span.estimated_rows, span.modeled_rows_out)
        parts.append(f"est={_format_rows(span.estimated_rows)}")
        parts.append(f"q={_format_q(q)}")
    if span.self_seconds:
        parts.append(f"self={span.self_seconds:.2f}s")
    for counter in ("tuples_scanned", "index_lookups", "rows_materialized"):
        if span.counters.get(counter):
            parts.append(f"{counter}={span.counters[counter]:,}")
    if span.cost.get("spill"):
        parts.append(f"spill={span.cost['spill']:.2f}s")
    return "  ".join(parts)


def _render_operators(span: Span, depth: int, lines: list[str]) -> None:
    lines.append(_operator_line(span, depth))
    for child in span.children:
        _render_operators(child, depth + 1, lines)


def render_explain_analyze(trace: QueryTrace) -> str:
    """Phase-by-phase plan with measured cardinalities and Q-errors."""
    lines = [
        f"EXPLAIN ANALYZE — {trace.root.name}",
        f"simulated total: {trace.root.end_seconds:.2f}s"
        f" across {len(trace.phase_spans())} phase(s)",
    ]
    for phase in trace.phase_spans():
        lines.append("")
        lines.append(
            f"phase {phase.name}"
            f"  [{phase.start_seconds:.2f}s – {phase.end_seconds:.2f}s]"
        )
        for operator in phase.children:
            _render_operators(operator, 1, lines)
    if trace.estimates:
        lines.append("")
        lines.append("estimate accuracy (re-optimization points):")
        lines.append(
            f"  {'phase':<22s} {'operator':<42s}"
            f" {'estimated':>14s} {'actual':>14s} {'q-error':>8s}"
        )
        for record in trace.estimates:
            lines.append(
                f"  {record.phase:<22s} {record.operator[:42]:<42s}"
                f" {_format_rows(record.estimated_rows):>14s}"
                f" {_format_rows(record.actual_rows):>14s}"
                f" {_format_q(record.q_error):>8s}"
            )
        from repro.analysis.diagnose import diagnose_trace, format_diagnosis

        hypotheses = diagnose_trace(trace)
        if hypotheses:
            lines.append("")
            lines.append("plan-quality diagnosis (ranked hypotheses):")
            lines.append(format_diagnosis(hypotheses))
    return "\n".join(lines)


def qerror_stats(trace: QueryTrace | None) -> dict:
    """Summary statistics of a trace's estimate records.

    Returns ``records`` (count), ``final`` (root-join Q-error of the last
    job), ``worst`` and ``mean`` — the numbers the bench harness tabulates
    per optimizer — plus ``infinite``, the count of unbounded misses
    (zero-estimate or zero-actual stages). ``worst``/``mean`` aggregate the
    *finite* records only, so downstream consumers (the bench summaries)
    never ingest ``inf``/``NaN``;
    an all-infinite trace yields ``None`` aggregates with a nonzero
    ``infinite`` count. An execution without estimate records (or without a
    trace) yields zeros/None so callers can render a placeholder.
    """
    if trace is None or not trace.estimates:
        return {
            "records": 0,
            "infinite": 0,
            "final": None,
            "worst": None,
            "mean": None,
        }
    errors = [record.q_error for record in trace.estimates]
    finite = [e for e in errors if math.isfinite(e)]
    return {
        "records": len(errors),
        "infinite": len(errors) - len(finite),
        "final": trace.final_q_error(),
        "worst": max(finite) if finite else None,
        "mean": sum(finite) / len(finite) if finite else None,
    }
