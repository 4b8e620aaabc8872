"""Observability: structured execution tracing and estimate-accuracy records.

The paper's argument is that re-optimization points shrink the gap between
*estimated* and *actual* join cardinalities. This package makes that gap a
first-class, queryable artifact: every execution produces a
:class:`QueryTrace` of hierarchical spans (query → phase → operator) stamped
with the simulated-time clock and per-operator counters. Every span where a
planner's cardinality estimate met a measured actual carries both, and reads
as an :class:`EstimateRecord` — the Q-error signal of Izenov et al. 2021.
Every phase span also carries its job's dataflow record (what it read,
wrote, scanned, probed or built), so the query-level verifier reads one
span tree, not a ledger kept beside it.

Tracing is pure instrumentation: it observes :class:`JobMetrics` deltas and
never charges the cost model, so simulated times are bit-identical with and
without a tracer attached.
"""

from repro.obs.report import qerror_stats, render_explain_analyze
from repro.obs.timeline import ClusterTimeline, TimelineEvent
from repro.obs.trace import (
    EstimateRecord,
    QueryTrace,
    Span,
    Tracer,
    q_error,
)

__all__ = [
    "ClusterTimeline",
    "EstimateRecord",
    "QueryTrace",
    "Span",
    "TimelineEvent",
    "Tracer",
    "q_error",
    "qerror_stats",
    "render_explain_analyze",
]
