"""Service-path equivalence proof: one tenant, caches off == plain Session.

The service is allowed to *add* capability (caching, fairness, persistence)
but never to change what a query computes or charges. This test pins the
strongest form of that promise, in the style of the cross-engine harness
(tests/engine/equivalence.py): for every registered strategy, a single
tenant submitting through a cache-off service (same ``SchedulerConfig()``)
must be byte-identical to ``Session.submit``/``run_all`` on every facet —
rows, metrics (repr-exact floats), plan, phases, trace, schedule, decisions,
and the cluster timeline. The only sanctioned difference is the tenant
annotation itself (``ScheduleInfo.tenant`` and ``TimelineEvent.tenants``),
which is checked to be exactly the tenant tag and nothing else.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.service import QueryService, ServiceConfig

from tests.conftest import build_star_session, load_star_data, small_cluster, star_query
from tests.engine.equivalence import ALL_STRATEGIES
from tests.engine.equivalence import result_fingerprint as fingerprint

#: the facets compared for byte-identity (timeline handled separately so the
#: tenant annotation can be factored out explicitly).
FACETS = ("rows", "metrics", "plan", "phases", "trace", "schedule", "decisions")


def run_plain(session, strategy: str):
    session.reset_scheduler()
    handle = session.submit(star_query(), strategy)
    session.run_all()
    fp = fingerprint(handle.result())
    events = list(session.scheduler.timeline.events)
    session.reset_intermediates()
    return fp, events


def run_service_path(service: QueryService, strategy: str):
    service.reset_scheduler()
    tenant = service.session("solo")
    handle = tenant.submit(star_query(), strategy)
    service.run_all()
    fp = fingerprint(handle.result())
    events = list(service.scheduler.timeline.events)
    tenant.reset_intermediates()
    return fp, events, handle


@pytest.fixture(scope="module")
def plain_session():
    return build_star_session()


@pytest.fixture(scope="module")
def cache_off_service():
    service = QueryService(
        small_cluster(),
        config=ServiceConfig(result_cache=False, intermediate_cache=False),
    )
    load_star_data(service)
    return service


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_service_path_byte_identical_to_session(
    plain_session, cache_off_service, strategy
):
    plain_fp, plain_events = run_plain(plain_session, strategy)
    service_fp, service_events, handle = run_service_path(
        cache_off_service, strategy
    )

    for facet in FACETS:
        assert service_fp[facet] == plain_fp[facet], (
            f"{strategy}: service path diverges from Session on {facet}\n"
            f"  session {plain_fp[facet]!r}\n"
            f"  service {service_fp[facet]!r}"
        )

    # timeline: identical except the tenant tag, which is exactly "solo"
    assert len(service_events) == len(plain_events), strategy
    for plain_event, service_event in zip(plain_events, service_events):
        assert service_event.tenants == ("solo",), strategy
        assert replace(service_event, tenants=()) == plain_event, strategy

    # the tenant annotation itself is the only scheduling difference
    assert handle.schedule.tenant == "solo"
    assert not handle.schedule.cache_hit


def test_cache_off_service_has_no_cache_wiring(cache_off_service):
    assert cache_off_service.cache is None
    assert cache_off_service.executor.cache is None
    assert cache_off_service.scheduler.on_admit is None
    assert cache_off_service.scheduler.on_finish is None
