"""Concurrent admission: determinism, queue delay, priorities, isolation.

The scheduler's contract is that concurrency never changes a query's own
answer or charge: per-query rows, plan descriptions, phases and JobMetrics
are schedule-independent, while waiting shows up only in the per-query
``ScheduleInfo`` (and only under saturation).
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.common.errors import OptimizationError, ReproError
from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.engine.scheduler import JobScheduler, SchedulerConfig
from repro.optimizers import make_optimizer
from repro.spec import PlannerSpec

from tests.conftest import build_star_session, star_query, submit_strategy
from tests.engine.equivalence import ALL_STRATEGIES


def lone_submission(name: str):
    """One query submitted to a session's shared scheduler, drained."""
    session = build_star_session()
    handle = session.submit(star_query(), PlannerSpec.of(name))
    session.run_all()
    return handle.result()


class TestDeterminismGuard:
    """A lone submission on a session's scheduler (shared launches on) is
    byte-identical to the blocking run on a private one."""

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_scheduled_matches_direct(self, name):
        direct = make_optimizer(name).execute(star_query(), build_star_session())
        scheduled = lone_submission(name)

        assert scheduled.rows == direct.rows
        assert scheduled.plan_description == direct.plan_description
        assert scheduled.phases == direct.phases
        assert asdict(scheduled.metrics) == asdict(direct.metrics)
        assert scheduled.seconds == direct.seconds

    def test_scheduled_trace_matches_direct(self):
        direct = DynamicOptimizer().execute(star_query(), build_star_session())
        scheduled = lone_submission("dynamic")
        direct_spans = [(s.name, s.end_seconds) for s in direct.trace.phase_spans()]
        scheduled_spans = [
            (s.name, s.end_seconds) for s in scheduled.trace.phase_spans()
        ]
        assert scheduled_spans == direct_spans


class TestQueueDelay:
    def test_solo_query_has_zero_delay(self):
        session = build_star_session()
        result = session.execute(star_query())
        assert result.schedule is not None
        assert result.schedule.queue_delay_seconds == 0.0
        assert result.schedule.latency_seconds == pytest.approx(result.seconds)

    def test_saturation_charges_delay_without_touching_metrics(self):
        solo = build_star_session().execute(star_query())

        session = build_star_session()
        handles = [session.submit(star_query()) for _ in range(2)]
        session.run_all()
        results = [h.result() for h in handles]

        delays = [r.schedule.queue_delay_seconds for r in results]
        assert all(d >= 0.0 for d in delays)
        assert sum(delays) > 0.0  # someone waited for the shared cluster
        for result in results:
            assert result.rows == solo.rows
            assert result.plan_description == solo.plan_description
        # Latency covers own work plus waiting (plus shared-job co-tenancy).
        for result in results:
            assert (
                result.schedule.latency_seconds
                >= result.seconds + result.schedule.queue_delay_seconds - 1e-9
            )

    def test_timeline_agrees_with_handle_delays(self):
        session = build_star_session()
        handles = [session.submit(star_query()) for _ in range(2)]
        session.run_all()
        scheduler = session.scheduler
        for handle in handles:
            recorded = scheduler.timeline.queue_delay_of(handle.query_id)
            # Admission happened at clock zero here, so every delay the
            # handle accrued is visible on some timeline event.
            assert recorded == pytest.approx(handle.queue_delay_seconds)


class TestConcurrentAdmission:
    def test_concurrent_queries_match_serial_results(self):
        serial = [
            build_star_session().execute(star_query(), PlannerSpec.of(name))
            for name in ("dynamic", "ingres", "pilot_run")
        ]

        session = build_star_session()
        handles = [
            session.submit(star_query(), PlannerSpec.of(name))
            for name in ("dynamic", "ingres", "pilot_run")
        ]
        session.run_all()

        for handle, expected in zip(handles, serial):
            result = handle.result()
            assert result.rows == expected.rows
            assert result.plan_description == expected.plan_description
            assert result.phases == expected.phases

    def test_max_concurrent_one_serializes(self):
        session = build_star_session()
        scheduler = JobScheduler(
            session.executor, SchedulerConfig(max_concurrent_queries=1)
        )
        first, second = (
            submit_strategy(scheduler, star_query(), make_optimizer("dynamic"), session)
            for _ in range(2)
        )
        scheduler.run_all()

        assert first.done and second.done
        first_events = scheduler.timeline.events_for(first.query_id)
        second_events = scheduler.timeline.events_for(second.query_id)
        assert first_events and second_events
        # No interleaving: the second query's first job starts after the
        # first query completely finished.
        assert second_events[0].start_seconds >= first_events[-1].end_seconds
        assert second.admitted_at >= first.finished_at
        assert second.queue_delay_seconds > 0.0
        assert first.queue_delay_seconds == 0.0

    def test_priority_wins_admission(self):
        session = build_star_session()
        scheduler = JobScheduler(
            session.executor, SchedulerConfig(max_concurrent_queries=1)
        )
        low = submit_strategy(
            scheduler,
            star_query(),
            make_optimizer("dynamic"),
            session,
            priority=0,
            label="low",
        )
        high = submit_strategy(
            scheduler,
            star_query(),
            make_optimizer("dynamic"),
            session,
            priority=5,
            label="high",
        )
        finished = scheduler.run_all()

        assert [h.label for h in finished] == ["high", "low"]
        assert high.queue_delay_seconds == 0.0
        assert low.admitted_at >= high.finished_at

    def test_namespaced_intermediates_do_not_collide(self):
        session = build_star_session()
        handles = [session.submit(star_query()) for _ in range(2)]
        session.run_all()
        r1, r2 = (h.result() for h in handles)
        assert r1.rows == r2.rows
        # Each query materialized into its own __q<id> namespace while it
        # ran, and the scheduler dropped the namespace when it finished —
        # sustained traffic must not grow the session catalogs.
        assert not any(n.startswith("__") for n in session.datasets.names())

    def test_result_before_run_raises(self):
        session = build_star_session()
        handle = session.submit(star_query())
        with pytest.raises(ReproError):
            handle.result()

    def test_unknown_optimizer_raises_at_submit(self):
        session = build_star_session()
        with pytest.raises(OptimizationError):
            session.submit(star_query(), "nope")


class TestFailureIsolation:
    def test_failure_leaves_other_queries_untouched(self):
        clean = build_star_session().execute(star_query())

        session = build_star_session()
        doomed = session.submit(star_query(), PlannerSpec.of("dynamic", fail_after_jobs=2))
        healthy = session.submit(star_query())
        session.run_all()

        assert doomed.failed
        with pytest.raises(SimulatedFailure):
            doomed.result()

        result = healthy.result()
        assert result.rows == clean.rows
        assert result.plan_description == clean.plan_description
        assert result.phases == clean.phases
        assert result.schedule.queue_delay_seconds >= 0.0

    def test_failed_query_resumes_from_checkpoint(self):
        clean = build_star_session().execute(star_query())

        session = build_star_session()
        doomed = session.submit(star_query(), PlannerSpec.of("dynamic", fail_after_jobs=2))
        session.submit(star_query())
        session.run_all()

        checkpoint = doomed.error.checkpoint
        completed_jobs = checkpoint.run.metrics.jobs
        resumed = DynamicOptimizer().resume(checkpoint, session)
        assert resumed.rows == clean.rows
        assert resumed.phases == clean.phases
        # Recovery never repeats completed jobs.
        assert resumed.metrics.jobs == clean.metrics.jobs
        assert completed_jobs >= 2
