"""A run's record is its result; a strategy object holds only its options.

The plan a run executed is ``result.plan`` (``plan_description`` is its
``describe()``), a result-cache hit carries the same plan, and executing a
strategy — failing and resuming included — leaves the strategy object as it
was constructed.
"""

from __future__ import annotations

import pytest

from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.optimizers import available_strategies, make_optimizer
from repro.service import QueryService

from tests.conftest import build_star_session, load_star_data, small_cluster, star_query


@pytest.mark.parametrize("name", available_strategies())
def test_execute_leaves_the_strategy_as_constructed(name):
    strategy = make_optimizer(name)
    before = dict(vars(strategy))
    strategy.execute(star_query(), build_star_session())
    assert vars(strategy) == before


@pytest.mark.parametrize("name", available_strategies())
def test_result_carries_its_plan(name):
    result = build_star_session().execute(star_query(), name)
    assert result.plan.aliases == frozenset(star_query().aliases)
    assert result.plan.describe() == result.plan_description
    assert "⋈" in result.plan_description


@pytest.mark.parametrize("name", available_strategies())
def test_a_result_cache_hit_carries_the_same_plan(name):
    service = QueryService(small_cluster())
    load_star_data(service)
    first = service.session("a").submit(star_query(), name)
    service.run_all()
    second = service.session("b").submit(star_query(), name)
    service.run_all()
    assert second.schedule.cache_hit
    assert second.result().plan == first.result().plan


def test_the_failure_injector_fires_once_and_the_resumed_run_goes_on():
    session = build_star_session()
    strategy = DynamicOptimizer(fail_after_jobs=2)
    before = dict(vars(strategy))
    with pytest.raises(SimulatedFailure) as failure:
        strategy.execute(star_query(), session)
    assert vars(strategy) == before
    resumed = strategy.resume(failure.value.checkpoint, session)
    assert vars(strategy) == before
    assert resumed.rows == session.execute(star_query()).rows
    # the injector is the run's, not the strategy's: a new run fails again
    with pytest.raises(SimulatedFailure):
        strategy.execute(star_query(), session)
    session.reset_intermediates()
