"""The ``cells`` golden record: everything a run exposes, facet by facet.

``run_fingerprint`` runs one bench query under one strategy and returns one
text per facet: rows, ``JobMetrics`` (one field a line), plan, phases,
``spans`` (the trace, one line per span and per dataflow record), ``trace``
(the full trace JSON), the schedule record, cluster timeline, chrome trace
and policy decisions. ``RECORD`` pins every cell in ``CELLS`` at SF 100,
seed 42; no facet depends on ``PYTHONHASHSEED`` or on cell order.
"""

from __future__ import annotations

import json
from dataclasses import fields

from repro.bench.runner import SWEEP_QUERIES, workbench_for_query
from repro.engine.scheduler import solo_scheduler
from repro.optimizers import available_strategies
from repro.spec import PlannerSpec
from tests.golden import Record

#: every registered strategy; the golden sweep covers all of them.
ALL_STRATEGIES = tuple(sorted(available_strategies()))
#: the paper's four evaluation queries plus the JOB-style suite.
ALL_QUERIES = tuple(SWEEP_QUERIES)
#: SF 100: every sweep query returns rows (at SF 10 four of seven are empty)
GOLDEN_SCALE_FACTOR = 100
GOLDEN_SEED = 42

#: cell id -> (query label, strategy, planner options). ``dynamic+inl``
#: covers IndexNestedLoopJoinOp (secondary indexes on); ``dynamic+transfer``
#: the SemiJoinFilterOp reduce jobs feeding the re-optimization loop.
CELLS: dict[str, tuple[str, str, dict]] = {}
for _q in ALL_QUERIES:
    CELLS.update({f"{_q}/{s}": (_q, s, {}) for s in ALL_STRATEGIES})
    CELLS[f"{_q}/dynamic+inl"] = (_q, "dynamic", {"inl_enabled": True})
    CELLS[f"{_q}/dynamic+transfer"] = (_q, "dynamic", {"pre_filter": "transfer"})


def canonical_rows(rows: list[dict]) -> str:
    """Rows as canonical JSON: key order inside a row is not significant,
    row order and every value are."""
    return json.dumps(rows, sort_keys=True, default=repr)


def fields_text(obj, names) -> str:
    """One ``name=repr`` line per field: floats stay ``repr``-exact."""
    return "\n".join(f"{name}={getattr(obj, name)!r}" for name in names)


def metrics_fingerprint(metrics) -> str:
    return fields_text(metrics, [f.name for f in fields(metrics) if not f.name.startswith("_")])


SCHEDULE_FIELDS = (
    "query_id", "priority", "submitted_at", "admitted_at", "finished_at",
    "queue_delay_seconds", "busy_seconds", "error",
)


def trace_spans(trace_json: str) -> str:
    """One line per span (indented by depth: kind, name, rows, modeled and
    estimated rows, cost by kind), then one line per dataflow record."""
    if trace_json == "none":
        return trace_json
    trace, lines = json.loads(trace_json), []

    def visit(span: dict, depth: int) -> None:
        line = f"{'  ' * depth}{span['kind']} {span['name']} rows={span['rows_out']}"
        line += f" modeled={span['modeled_rows_out']!r}"
        for key, name in (("estimated_rows", "estimated"), ("cost", "cost")):
            line += f" {name}={span[key]!r}" if key in span else ""
        lines.append(line)
        for child in span.get("children", ()):
            visit(child, depth + 1)

    visit(trace["spans"], 0)
    for record in trace.get("dataflows", ()):
        lines.append("dataflow " + " ".join(f"{k}={v!r}" for k, v in record.items() if v))
    return "\n".join(lines)


def result_fingerprint(result) -> dict[str, str]:
    """The facets a finished result carries by itself."""
    trace = result.trace.to_json() if result.trace else "none"
    schedule = result.schedule
    return {
        "rows": canonical_rows(result.rows),
        "metrics": metrics_fingerprint(result.metrics),
        "plan": result.plan_description,
        "phases": "\n".join(result.phases),
        "spans": trace_spans(trace),
        "trace": trace,
        "schedule": "none" if schedule is None else fields_text(schedule, SCHEDULE_FIELDS),
        "decisions": "\n".join(map(repr, result.decisions)),
    }


def run_fingerprint(
    label: str, optimizer: str, scale_factor: int = GOLDEN_SCALE_FACTOR, **options
) -> dict[str, str]:
    """Execute one bench query on a :func:`solo_scheduler` (the path of
    ``Session.execute``), keeping the scheduler for the timeline facets."""
    bench = workbench_for_query(label, scale_factor, GOLDEN_SEED)
    session = bench.session
    if options.get("inl_enabled"):
        bench.ensure_indexes()
    try:
        scheduler = solo_scheduler(session)
        query = bench.query(label)
        strategy = PlannerSpec.of(optimizer, **options).make()
        handle = scheduler.submit(
            query,
            lambda namespace: strategy.stages(query, session, namespace=namespace),
            session,
        )
        scheduler.run_all()
        return {
            **result_fingerprint(handle.result()),
            "timeline": scheduler.timeline.render(),
            "chrome_trace": scheduler.timeline.to_chrome_trace(),
        }
    finally:
        session.reset_intermediates()


def run_cell(cell: str) -> dict[str, str]:
    label, strategy, options = CELLS[cell]
    return run_fingerprint(label, strategy, **options)


RECORD = Record("cells", tuple(CELLS), run_cell, frozenset({"rows", "trace", "chrome_trace"}))
