"""The run record's contract: one ``QueryRun`` per execution, and the result
is read off it.

For every registered strategy, under every variant that changes the dataflow
(transfer prelude, replan policy, space sharing, the service's caches,
failure + resume at every job index), on the star universe:

- every request of an execution carries the same run;
- ``result.phases`` is the trace's phase-span names (derived, not kept
  beside them — a strategy cannot report a phase that did not run);
- ``result.metrics`` *is* the run's cumulative metrics object;
- ``result.seconds`` is where the trace's clock stopped.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import OptimizationError
from repro.core.driver import SimulatedFailure
from repro.core.policy import ReplanPolicy
from repro.engine.scheduler import JobScheduler, SchedulerConfig, run_solo
from repro.engine.scheduler.request import JobRequest
from repro.optimizers import available_strategies
from repro.service import QueryService, ServiceConfig
from repro.spec import PlannerSpec

from tests.conftest import (
    build_star_session,
    load_star_data,
    small_cluster,
    star_query,
    submit_strategy,
)

STRATEGIES = sorted(available_strategies())
VARIANTS = {
    "plain": {},
    "transfer": {"pre_filter": "transfer"},
    "policy": {"policy": ReplanPolicy.default()},
}


def specs(variants=VARIANTS) -> list:
    """One ``pytest.param`` per (strategy, variant) the strategy accepts."""
    found = []
    for name in STRATEGIES:
        for variant, options in variants.items():
            try:
                spec = PlannerSpec.of(name, **options)
            except OptimizationError:
                continue  # e.g. cost_based takes no policy
            found.append(pytest.param(spec, id=f"{name}-{variant}"))
    return found


class Recording:
    """Forwards a strategy's stage generator, noting each request's run."""

    def __init__(self, spec: PlannerSpec) -> None:
        self.inner = spec.make()
        self.runs = []

    def stages(self, query, session, namespace=""):
        return self.forward(self.inner.stages(query, session, namespace=namespace))

    def run_solo(self, query, session):
        """Run blocking, as ``Optimizer.execute`` does."""
        return run_solo(
            query,
            lambda namespace: self.stages(query, session, namespace=namespace),
            session,
        )

    def forward(self, stages):
        payload = None
        while True:
            try:
                item = stages.send(payload)
            except StopIteration as stop:
                return stop.value
            requests = [item] if isinstance(item, JobRequest) else item
            self.runs += [request.run for request in requests]
            payload = yield item


def assert_read_off_the_run(result, runs) -> None:
    (run,) = set(runs)
    assert result.phases == [span.name for span in result.trace.phase_spans()]
    assert len(result.phases) == len(runs)
    assert result.metrics is run.metrics
    assert result.seconds == result.trace.root.end_seconds


@pytest.mark.parametrize("spec", specs())
def test_direct_pump(spec):
    """A blocking run pumps the generator as a one-query schedule."""
    session = build_star_session()
    strategy = Recording(spec)
    result = strategy.run_solo(star_query(), session)
    assert_read_off_the_run(result, strategy.runs)


@pytest.mark.parametrize("spec", specs())
def test_concurrent_on_two_job_slots(spec):
    session = build_star_session()
    scheduler = JobScheduler(session.executor, SchedulerConfig(job_slots=2))
    strategies = [Recording(spec) for _ in range(3)]
    handles = [
        submit_strategy(scheduler, star_query(), strategy, session)
        for strategy in strategies
    ]
    scheduler.run_all()
    for handle, strategy in zip(handles, strategies):
        assert_read_off_the_run(handle.result(), strategy.runs)


@pytest.mark.parametrize("spec", specs({"plain": {}}))
def test_service_with_both_caches(spec):
    """Round one: the strategy, then the two push-down planners, the later of
    which replays the earlier's materializations from the intermediate
    cache. Round two: the result cache answers."""
    service = QueryService(
        small_cluster(),
        scheduler_config=replace(SchedulerConfig(), max_concurrent_queries=1),
        config=ServiceConfig(result_cache=True, intermediate_cache=True),
    )
    load_star_data(service)
    others = [name for name in ("dynamic", "ingres") if name != spec.strategy]

    def submit(tenant, planner):
        strategy = Recording(planner)
        handle = submit_strategy(
            service.scheduler,
            star_query(),
            strategy,
            service.session(tenant),
            tenant=tenant,
        )
        handle.cache_key = service.cache_key_for(star_query(), planner)
        return handle, strategy

    submitted = [submit("a", spec)]
    submitted += [submit("b", PlannerSpec.of(name)) for name in others]
    service.run_all()
    for handle, strategy in submitted:
        assert_read_off_the_run(handle.result(), strategy.runs)
    assert service.cache.stats.intermediate_hits > 0

    handle, strategy = submit("c", spec)
    service.run_all()
    cached = handle.result()
    assert handle.schedule.cache_hit and strategy.runs == []
    assert (cached.phases, cached.trace, cached.seconds) == (["cache-hit"], None, 0.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fail_at_every_job_then_resume(variant):
    """The checkpoint holds the run; the resumed result is read off the same
    one, so its phases cover the jobs from before the failure too."""
    options = VARIANTS[variant]
    clean = build_star_session().execute(star_query(), PlannerSpec.of("dynamic", **options))
    resumed_runs = 0
    for fail_after in range(1, clean.metrics.jobs):
        session = build_star_session()
        strategy = Recording(
            PlannerSpec.of("dynamic", fail_after_jobs=fail_after, **options)
        )
        try:
            result = strategy.run_solo(star_query(), session)
        except SimulatedFailure as failure:
            # Fired at the first re-optimization point with >= fail_after jobs.
            checkpoint = failure.checkpoint
            assert fail_after <= checkpoint.run.metrics.jobs == len(strategy.runs)
            result = run_solo(
                star_query(),
                lambda namespace: strategy.forward(
                    strategy.inner.resume_stages(checkpoint, session)
                ),
                session,
                namespace=checkpoint.run.namespace,
            )
            assert result.metrics is checkpoint.run.metrics
            resumed_runs += 1
        assert_read_off_the_run(result, strategy.runs)
        assert result.phases == clean.phases, fail_after
    assert resumed_runs  # an index past the last checkpoint just completes
