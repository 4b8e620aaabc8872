"""The launch rule as data: party rules compared over recorded ready sets.

A small star-universe service run records every ready set the scheduler
hands :func:`~repro.engine.scheduler.launch.plan_launches`. The kept rule's
launches over those sets are exactly the launches the scheduler made, read
off its timeline. The same sets then pin what the solo path's rule and three
of the party rules measured and rejected when launches began to be shared
(ROADMAP "Measured and closed") would have launched instead, each rule a
function of the ready set alone.
"""

from __future__ import annotations

import pytest

from repro.engine.scheduler import scheduler as scheduler_module
from repro.engine.scheduler.launch import (
    Launch,
    ReadyRequest,
    plan_alone,
    plan_launches,
    service_order,
)
from repro.service import QueryService

from tests.conftest import load_star_data, small_cluster, star_query
from tests.engine.scheduler.test_batching import (
    double_db_query,
    fact_db_query,
    fact_window_query,
)
from tests.service.test_intermediate_replay import db_query

#: (tenant, query, strategy): heavy fact scans, light db push-downs, a
#: same-dataset pair, a one-job planner and light fused finals
SUBMISSIONS = (
    ("a", star_query, "dynamic"),
    ("b", fact_db_query, "dynamic"),
    ("a", db_query, "dynamic"),
    ("c", star_query, "cost_based"),
    ("b", double_db_query, "dynamic"),
    ("c", fact_window_query, "dynamic"),
)

#: zero-length timeline marks; every other event is one launch
MARKS = ("cache-replay", "cache-hit", "failed")


@pytest.fixture(scope="module")
def recorded():
    """``(calls, timeline)``: each ``plan_launches`` call's arguments and
    launches over a two-slot service run with both caches on."""
    calls = []

    def recording(*arguments):
        launches = plan_launches(*arguments)
        calls.append((arguments, launches))
        return launches

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler_module, "plan_launches", recording)
        service = QueryService(small_cluster(), job_slots=2)
    load_star_data(service)
    handles = [
        service.session(tenant).submit(query(), strategy)
        for tenant, query, strategy in SUBMISSIONS
    ]
    service.run_all()
    assert all(handle.done for handle in handles)
    return calls, service.scheduler.timeline


@pytest.fixture(scope="module")
def ready_sets(recorded):
    """The recorded calls that had ready work and a free slot."""
    calls, _ = recorded
    return [
        arguments
        for arguments, _ in calls
        if arguments[0] and arguments[1] < arguments[2]
    ]


def render(launches: list[Launch]) -> str:
    return " ".join(
        "+".join(f"q{query}#{index}" for query, index in launch.branches)
        + f"/{launch.partitions}"
        for launch in launches
    )


def same_scan_run(requests: list[ReadyRequest]) -> list[ReadyRequest]:
    """The first request and the consecutive ones over its ``batch_key``."""
    run = requests[:1]
    for request in requests[1:]:
        key = run[0].batch_key
        if key is None or (request.batch_key, request.index) != (
            key,
            run[-1].index + 1,
        ):
            break
        run.append(request)
    return run


def by_query(queue: list[ReadyRequest]) -> dict[int, list[ReadyRequest]]:
    grouped: dict[int, list[ReadyRequest]] = {}
    for request in queue:
        grouped.setdefault(request.query_id, []).append(request)
    return grouped


def fill_slots(party_of):
    """A launch rule from a party rule ``(queue, startup) -> party``."""

    def rule(ready, in_flight, slots, partitions, startup):
        queue = service_order(ready)
        parties = []
        while queue and in_flight + len(parties) < slots:
            party = party_of(queue, startup)
            parties.append(party)
            queue = [r for r in queue if r not in party]
        width = max(1, partitions // (in_flight + len(parties))) if parties else 0
        return [
            Launch(tuple((r.query_id, r.index) for r in party), width)
            for party in parties
        ]

    return rule


@fill_slots
def any_next_request_rides(queue, startup):
    """Every other query's next non-virtual request rides, whatever it reads."""
    lead, *_ = queue
    if lead.virtual:
        return [lead]
    groups = by_query(queue)
    party = same_scan_run(groups.pop(lead.query_id))
    return party + [rs[0] for rs in groups.values() if not rs[0].virtual]


@fill_slots
def light_next_requests_only(queue, startup):
    """The kept rule without its sweep: a heavy launch takes only the next
    light requests, so which light job rides it is a matter of mix."""
    lead, *_ = queue
    if lead.virtual:
        return [lead]
    groups = by_query(queue)
    key, heavy = lead.batch_key, not lead.read_seconds < startup
    party = same_scan_run(groups.pop(lead.query_id))
    for requests in groups.values():
        mate = requests[0]
        if mate.virtual:
            continue
        if key is not None and mate.batch_key == key:
            party += same_scan_run(requests)
        elif mate.read_seconds < startup:
            party.append(mate)
        elif not heavy:
            heavy, key = True, mate.batch_key
            party += same_scan_run(requests)
    return party


@fill_slots
def light_shares_only_with_light(queue, startup):
    """A light leader takes the other queries' next light requests; a heavy
    one shares only its dataset's scan."""
    lead, *_ = queue
    if lead.virtual:
        return [lead]
    groups = by_query(queue)
    party = same_scan_run(groups.pop(lead.query_id))
    light = lead.read_seconds < startup
    for requests in groups.values():
        mate = requests[0]
        if mate.virtual:
            continue
        if light and mate.read_seconds < startup:
            party.append(mate)
        elif not light and lead.batch_key is not None and mate.batch_key == lead.batch_key:
            party += same_scan_run(requests)
    return party


def test_the_kept_rule_is_what_the_scheduler_launched(recorded):
    calls, timeline = recorded
    planned = [
        (launch, index)
        for index, (_, launches) in enumerate(calls)
        for launch in launches
    ]
    launched = [event for event in timeline.events if event.kind not in MARKS]
    assert len(planned) == len(launched)
    starts: dict[int, float] = {}
    for (launch, call), event in zip(planned, launched):
        queries = [query for query, _ in event.branches] or list(event.queries)
        assert [query for query, _ in launch.branches] == queries
        assert launch.partitions == event.slice_partitions
        # the launches of one plan start at one instant
        assert starts.setdefault(call, event.start_seconds) == event.start_seconds
    assert any(len(launch.branches) > 2 for launch, _ in planned)


RULES = {
    "kept": plan_launches,
    "each alone": plan_alone,
    "any next request rides": any_next_request_rides,
    "light next requests only": light_next_requests_only,
    "light shares only with light": light_shares_only_with_light,
}

#: per ready set, each launch's ``q<query>#<index>`` branches and width
EXPECTED = {
    "kept": [
        "q1#0+q2#0+q3#0+q1#1+q2#1/2 q4#0/2",
        "q1#0/2",
        "q2#0+q5#0+q5#1/2",
        "q3#0/2",
        "q5#0+q1#0/2",
        "q6#0/2",
        "q6#0/4",
    ],
    "each alone": [
        "q1#0/2 q1#1/2",
        "q1#0/2",
        "q2#0/2",
        "q3#0/2",
        "q5#0/2",
        "q6#0/2",
        "q6#0/4",
    ],
    # the one-job planner rides the fact scan, and two heavy jobs serialise
    # their non-scalable work in one slot
    "any next request rides": [
        "q1#0+q2#0+q3#0+q4#0/2 q1#1+q2#1/2",
        "q1#0+q2#0+q3#0/2",
        "q2#0+q3#0+q5#0/2",
        "q3#0+q5#0+q6#0/2",
        "q5#0+q6#0+q1#0/2",
        "q6#0/2",
        "q6#0/4",
    ],
    # q1#1 and q2#1 miss the fact launch and take the other slot
    "light next requests only": [
        "q1#0+q2#0+q3#0/2 q1#1+q2#1+q4#0/2",
        "q1#0/2",
        "q2#0+q5#0/2",
        "q3#0/2",
        "q5#0+q1#0/2",
        "q6#0/2",
        "q6#0/4",
    ],
    "light shares only with light": [
        "q1#0+q3#0/2 q1#1/2",
        "q1#0/2",
        "q2#0/2",
        "q3#0/2",
        "q5#0/2",
        "q6#0/2",
        "q6#0/4",
    ],
}


@pytest.mark.parametrize("name", RULES)
def test_rule_over_the_recorded_ready_sets(name, ready_sets):
    assert [render(RULES[name](*arguments)) for arguments in ready_sets] == EXPECTED[name]
