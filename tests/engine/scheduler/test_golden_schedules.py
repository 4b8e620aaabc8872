"""The multi-query schedule's contract: every scenario equals its recording.

``golden_schedules.json`` holds, per scenario in ``SCENARIOS``, the SHA-256
of each ``schedule_fingerprint`` facet over the star universe. It was
recorded at commit 86e4a1b from the unmodified scheduler, whose plain default
was FIFO admission on an unbounded queue with a dedicated serial branch and
whose service default was fair admission on a 10 000-entry queue; the one
schedule that replaced those (DESIGN.md §7) is pinned to that recording.
``service caches on x2``'s timeline and chrome trace were re-recorded when
the timeline came to hold cluster jobs only: each digest is that of the
previous timeline with its zero-length marks (5 ``cache-hit``, 2
``cache-replay``) filtered out.
Re-record on purpose (a change *meant* to move the schedule; say in the
commit which facets moved and why) with::

    PYTHONPATH=src python -m tests.engine.scheduler.test_golden_schedules \\
        > tests/engine/scheduler/golden_schedules.json
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.engine.scheduler import JobScheduler, SchedulerConfig
from repro.optimizers import available_strategies, make_optimizer
from repro.service import QueryService, ServiceConfig

from tests.conftest import (
    build_star_session,
    load_star_data,
    small_cluster,
    star_query,
    submit_strategy,
)

GOLDEN_PATH = Path(__file__).with_name("golden_schedules.json")


def schedule_fingerprint(scheduler, handles) -> dict:
    """Everything observable about a schedule, facet by facet."""
    return {
        "timeline": scheduler.timeline.render(),
        "chrome_trace": scheduler.timeline.to_chrome_trace(),
        "cluster_jobs": scheduler.cluster_jobs,
        "scans_saved": scheduler.scans_saved,
        "handles": [
            (
                h.status,
                repr(h.queue_delay_seconds),
                repr(h.finished_at),
                repr(h.result().metrics.total_seconds),
                len(h.result().rows),
            )
            for h in handles
        ],
    }


def run_batch(config: SchedulerConfig, submissions: list[tuple[str, int]]):
    """``(strategy, priority)`` submissions on one fresh star session."""
    session = build_star_session()
    scheduler = JobScheduler(session.executor, config)
    handles = [
        submit_strategy(
            scheduler, star_query(), make_optimizer(name), session, priority=priority
        )
        for name, priority in submissions
    ]
    scheduler.run_all()
    return scheduler, handles


def run_service(caches: bool, rounds: int):
    """Tenant a floods three queries, tenant b sends one, per round."""
    per_round = (("a", "dynamic"), ("a", "ingres"), ("a", "pilot_run"), ("b", "dynamic"))
    # the service default as the checked-out commit defines it (86e4a1b too)
    defaults = QueryService(small_cluster()).scheduler.config
    service = QueryService(
        small_cluster(),
        scheduler_config=replace(defaults, max_concurrent_queries=1),
        config=ServiceConfig(result_cache=caches, intermediate_cache=caches),
    )
    load_star_data(service)
    handles = []
    for _ in range(rounds):
        handles += [
            service.session(tenant).submit(star_query(), strategy)
            for tenant, strategy in per_round
        ]
        service.run_all()
    return service.scheduler, handles


SCENARIOS = {
    **{
        f"{name} x3": (run_batch, SchedulerConfig(), [(name, 0)] * 3)
        for name in sorted(available_strategies())
    },
    "dynamic x4 job_slots=2": (run_batch, SchedulerConfig(job_slots=2), [("dynamic", 0)] * 4),
    "mixed priorities": (
        run_batch,
        SchedulerConfig(max_concurrent_queries=1),
        [("dynamic", 0), ("cost_based", 5), ("ingres", 0), ("dynamic", 2), ("pilot_run", 5)],
    ),
    "service caches off": (run_service, False, 1),
    "service caches on x2": (run_service, True, 2),
}


def digests(scenario: str) -> dict[str, str]:
    run, *arguments = SCENARIOS[scenario]
    return {
        facet: hashlib.sha256(repr(value).encode()).hexdigest()
        for facet, value in schedule_fingerprint(*run(*arguments)).items()
    }


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_schedule_matches_golden(scenario: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == set(SCENARIOS)
    current = digests(scenario)
    moved = [facet for facet in current if current[facet] != golden[scenario][facet]]
    assert not moved, f"{scenario}: diverges from the recording on {', '.join(moved)}"


if __name__ == "__main__":
    print(json.dumps({scenario: digests(scenario) for scenario in SCENARIOS}, indent=1))
