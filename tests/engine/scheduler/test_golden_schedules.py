"""The ``schedules`` golden record: every multi-query scenario, pinned.

``RECORD`` holds, per scenario in ``SCENARIOS`` over the star universe, the
cluster timeline, the chrome trace (one event a line), the cluster job and
saved-scan counts and one line per query handle, all verbatim
(``tests/golden.py`` says how to re-record).
"""

from __future__ import annotations

import json

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
from tests.golden import Record


def handle_line(handle) -> str:
    """Status, ``repr`` queue delay / finish / total seconds, row count."""
    result = handle.result()
    seconds = (handle.queue_delay_seconds, handle.finished_at, result.metrics.total_seconds)
    return repr((handle.status, *map(repr, seconds), len(result.rows)))


def schedule_fingerprint(scheduler, handles) -> dict[str, str]:
    """Everything observable about a schedule, facet by facet."""
    events = json.loads(scheduler.timeline.to_chrome_trace())["traceEvents"]
    return {
        "timeline": scheduler.timeline.render(),
        "chrome_trace": "\n".join(json.dumps(event) for event in events),
        "cluster_jobs": repr(scheduler.cluster_jobs),
        "scans_saved": repr(scheduler.scans_saved),
        "handles": "\n".join(map(handle_line, handles)),
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
    service = QueryService(
        small_cluster(),
        scheduler_config=SchedulerConfig(max_concurrent_queries=1),
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


def run_scenario(scenario: str) -> dict[str, str]:
    run, *arguments = SCENARIOS[scenario]
    return schedule_fingerprint(*run(*arguments))


RECORD = Record("schedules", tuple(SCENARIOS), run_scenario)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_schedule_matches_golden(scenario: str) -> None:
    RECORD.check(scenario)
