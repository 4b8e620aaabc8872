"""Golden-fingerprint harness: everything a run exposes, pinned by digest.

``run_fingerprint`` executes one bench query under one strategy and
flattens everything observable — rows, ``JobMetrics`` (``repr``-exact
floats), plan, phases, execution trace, schedule record, cluster timeline,
chrome trace, policy decisions — into a dict of strings, one per facet.
``golden_fingerprints.json`` holds the SHA-256 of each facet for every cell
in ``CELLS`` at SF 100, seed 42; ``assert_matches_golden`` re-runs a cell
and names the facets whose digest moved ("metrics", "rows", "timeline", ...).

The committed digests were recorded from the **row-wise** reference engine
(``run_fingerprint(..., engine="rowwise")``) at commit 259da77, the last
commit that had one, serialized as the ``__main__`` block below does. The
data plane that replaced it (DESIGN.md §10) is pinned to that recording;
fingerprints depend neither on ``PYTHONHASHSEED`` nor on cell order.
Re-record on purpose — after a change *meant* to move simulated numbers,
saying in the commit which facets moved and why — with::

    PYTHONPATH=src python tests/engine/equivalence.py \\
        > tests/engine/golden_fingerprints.json

There is no pytest flag for it. The mutation tests patch a kernel and assert
the check *fails*, which keeps the harness itself honest.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import fields
from pathlib import Path

from repro.bench.runner import SWEEP_QUERIES, workbench_for_query
from repro.engine.scheduler import solo_scheduler
from repro.optimizers import available_strategies
from repro.spec import PlannerSpec

#: every registered strategy; the golden sweep covers all of them.
ALL_STRATEGIES = tuple(sorted(available_strategies()))
#: the paper's four evaluation queries plus the JOB-style suite.
ALL_QUERIES = tuple(SWEEP_QUERIES)
#: the facets a fingerprint captures, in diff-report order.
FACETS = (
    "rows",
    "metrics",
    "plan",
    "phases",
    "trace",
    "schedule",
    "timeline",
    "chrome_trace",
    "decisions",
)

GOLDEN_PATH = Path(__file__).with_name("golden_fingerprints.json")
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


def metrics_fingerprint(metrics) -> str:
    """Every JobMetrics field with full float precision (``repr``-exact)."""
    return " ".join(
        f"{f.name}={getattr(metrics, f.name)!r}"
        for f in fields(metrics)
        if not f.name.startswith("_")
    )


def schedule_fingerprint(schedule) -> str:
    if schedule is None:
        return "none"
    return " ".join(
        f"{name}={getattr(schedule, name)!r}"
        for name in (
            "query_id",
            "priority",
            "submitted_at",
            "admitted_at",
            "finished_at",
            "queue_delay_seconds",
            "busy_seconds",
            "error",
        )
    )


def result_fingerprint(result) -> dict[str, str]:
    """The facets a finished result carries by itself."""
    return {
        "rows": canonical_rows(result.rows),
        "metrics": metrics_fingerprint(result.metrics),
        "plan": result.plan_description,
        "phases": repr(list(result.phases)),
        "trace": result.trace.to_json() if result.trace else "none",
        "schedule": schedule_fingerprint(result.schedule),
        "decisions": repr(tuple(result.decisions)),
    }


def run_fingerprint(
    label: str,
    optimizer: str,
    scale_factor: int = GOLDEN_SCALE_FACTOR,
    seed: int = GOLDEN_SEED,
    inl_enabled: bool = False,
    **options,
) -> dict[str, str]:
    """Execute one bench query; return its observable state, facet by facet.

    Runs on a :func:`solo_scheduler` — the same path as ``Session.execute``
    — but keeps the scheduler so the cluster timeline and chrome trace land
    in the fingerprint too.
    """
    bench = workbench_for_query(label, scale_factor, seed)
    session = bench.session
    if inl_enabled:
        bench.ensure_indexes()
        options["inl_enabled"] = True
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


def digests(cell: str) -> tuple[dict[str, str], dict[str, str]]:
    """Run one cell: (its fingerprint, the SHA-256 of each facet)."""
    label, strategy, options = CELLS[cell]
    fingerprint = run_fingerprint(label, strategy, **options)
    return fingerprint, {
        facet: hashlib.sha256(fingerprint[facet].encode()).hexdigest()
        for facet in FACETS
    }


@functools.cache
def load_goldens() -> dict[str, dict[str, str]]:
    recorded = json.loads(GOLDEN_PATH.read_text())
    assert recorded["scale_factor"] == GOLDEN_SCALE_FACTOR
    assert recorded["seed"] == GOLDEN_SEED
    return recorded["cells"]


def assert_matches_golden(cell: str) -> dict[str, str]:
    """Run one cell and assert every facet digest equals the recording;
    returns the fingerprint so callers can pin it further."""
    fingerprint, current = digests(cell)
    golden = load_goldens()[cell]
    moved = [facet for facet in FACETS if current[facet] != golden[facet]]
    assert not moved, (
        f"{cell}: diverges from the golden recording on {', '.join(moved)}; "
        + "; ".join(f"{f} now starts {fingerprint[f][:120]!r}" for f in moved)
    )
    return fingerprint


if __name__ == "__main__":
    golden = {
        "scale_factor": GOLDEN_SCALE_FACTOR,
        "seed": GOLDEN_SEED,
        "cells": {cell: digests(cell)[1] for cell in CELLS},
    }
    print(json.dumps(golden, indent=1))
