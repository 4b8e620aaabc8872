"""Regression tests for three scheduler bugs the space-shared executor exposed.

1. The outcome cursor used truthiness instead of an ``is not None`` check,
   so a falsy outcome wedged the query forever.
2. ``JobScheduler._fail`` leaked: the driver generator was never closed (its
   ``finally`` blocks never ran when the *executor* raised) and the failed
   query's namespaced intermediates + statistics stayed in the session
   catalogs forever.
3. Failed queries got a ``finished_at`` but no ``ScheduleInfo``, so
   throughput accounting silently dropped the capacity they consumed.
"""

from __future__ import annotations

from repro.core.driver import DynamicOptimizer
from repro.engine.metrics import JobMetrics
from repro.engine.scheduler import JobScheduler, SchedulerConfig
from repro.engine.scheduler.request import JobOutcome, JobRequest, QueryRun
from repro.engine.scheduler.scheduler import QueryHandle
from repro.optimizers import make_optimizer
from repro.spec import PlannerSpec

from tests.conftest import build_star_session, star_query, submit_strategy


class FalsyOutcome(JobOutcome):
    """A legitimate outcome that happens to be falsy."""

    def __bool__(self) -> bool:
        return False


class TestOutcomeCursorBug:
    def test_falsy_outcome_counts_as_answered(self):
        handle = QueryHandle(1, None, None, None, 0, "q", 0.0, "", "__q1")
        handle._group = True
        handle._requests = [object(), object()]
        handle._outcomes = [None, None]

        handle._outcomes[0] = FalsyOutcome(data=None, metrics=JobMetrics())
        # Any *answered* slot counts, falsy or not; a truthiness test would
        # leave the query waiting on request 0 forever.
        assert handle._has_pending()
        handle._outcomes[1] = FalsyOutcome(data=None, metrics=JobMetrics())
        assert not handle._has_pending()


class DoomedStrategy:
    """Delegates to the dynamic driver, then yields a job the executor
    rejects — an *executor-side* failure, unlike ``SimulatedFailure`` which
    the driver raises itself. The generator is left suspended at its yield,
    so only an explicit ``close()`` runs the ``finally`` block."""

    def __init__(self, after_jobs: int = 2) -> None:
        self.after_jobs = after_jobs
        self.cleaned_up = False

    def stages(self, query, session, namespace=""):
        inner = DynamicOptimizer().stages(query, session, namespace=namespace)
        try:
            payload = None
            count = 0
            while True:
                if count >= self.after_jobs:
                    # job=None and virtual_cost=None: run_request blows up.
                    yield JobRequest(
                        phase="doomed", run=QueryRun(query, session, "doomed")
                    )
                    raise AssertionError("doomed request should never succeed")
                try:
                    item = inner.send(payload)
                except StopIteration as stop:
                    return stop.value
                payload = yield item
                count += 1
        finally:
            self.cleaned_up = True


class TestFailureLeaks:
    def test_executor_error_fails_handle_instead_of_crashing_run_all(self):
        session = build_star_session()
        scheduler = JobScheduler(session.executor, SchedulerConfig())
        doomed = submit_strategy(scheduler, star_query(), DoomedStrategy(), session)
        healthy = submit_strategy(
            scheduler, star_query(), make_optimizer("dynamic"), session
        )
        scheduler.run_all()  # must not propagate the executor error
        assert doomed.failed
        assert healthy.done

    def test_failed_query_generator_is_closed(self):
        session = build_star_session()
        scheduler = JobScheduler(session.executor, SchedulerConfig())
        strategy = DoomedStrategy()
        submit_strategy(scheduler, star_query(), strategy, session)
        scheduler.run_all()
        # The driver's finally-block ran even though the failure happened in
        # the executor, not in the generator.
        assert strategy.cleaned_up

    def test_failed_query_namespace_is_released(self):
        session = build_star_session()
        scheduler = JobScheduler(session.executor, SchedulerConfig())
        doomed = submit_strategy(scheduler, star_query(), DoomedStrategy(), session)
        scheduler.run_all()
        assert doomed.failed
        leftovers = [n for n in session.datasets.names() if n.startswith("__q1__")]
        assert leftovers == []

    def test_finished_query_namespace_is_released(self):
        session = build_star_session()
        handle = session.submit(star_query())
        session.run_all()
        assert handle.done
        assert not any(n.startswith("__") for n in session.datasets.names())

    def test_checkpointed_failure_keeps_intermediates_for_resume(self):
        # SimulatedFailure carries a checkpoint: its intermediates are the
        # recovery state, so the namespace must survive the failure.
        session = build_star_session()
        doomed = session.submit(star_query(), PlannerSpec.of("dynamic", fail_after_jobs=2))
        session.run_all()
        assert doomed.failed
        assert doomed.error.checkpoint is not None
        assert any(n.startswith("__q1__") for n in session.datasets.names())


class TestQueryIdNamespaces:
    def test_later_schedulers_skip_a_retained_checkpoints_id(self):
        # Every scheduler counts ids from 1: the private one behind
        # execute() and a fresh shared one both used to reuse __q1, writing
        # over and then releasing the checkpoint's intermediates.
        clean = build_star_session().execute(star_query())
        session = build_star_session()
        doomed = session.submit(star_query(), PlannerSpec.of("dynamic", fail_after_jobs=2))
        session.run_all()
        kept = [n for n in session.datasets.names() if n.startswith("__q1__")]
        assert doomed.query_id == 1 and kept

        assert session.execute(star_query(), "dynamic").schedule.query_id == 2
        session.reset_scheduler()
        assert session.submit(star_query()).query_id == 2
        session.run_all()

        assert [n for n in session.datasets.names() if n.startswith("__")] == kept
        resumed = DynamicOptimizer().resume(doomed.error.checkpoint, session)
        assert resumed.rows == clean.rows


class TestFailedQueryAccounting:
    def test_failed_query_gets_schedule_info(self):
        session = build_star_session()
        doomed = session.submit(star_query(), PlannerSpec.of("dynamic", fail_after_jobs=2))
        healthy = session.submit(star_query())
        session.run_all()

        assert doomed.failed and healthy.done
        info = doomed.schedule
        assert info is not None
        assert info.failed
        assert "SimulatedFailure" in info.error
        assert info.busy_seconds > 0.0  # the work it charged before dying
        assert info.finished_at == doomed.finished_at
        assert info.queue_delay_seconds >= 0.0
        # Finished queries expose the same record on the handle too.
        assert healthy.schedule is healthy.result().schedule
        assert not healthy.schedule.failed

    def test_throughput_table_keeps_failed_rows(self):
        """Everything a per-query table needs about a failed query is on
        its handle: the label, the error and the work charged before dying."""
        session = build_star_session()
        doomed = session.submit(star_query(), PlannerSpec.of("dynamic", fail_after_jobs=2), label="doomed")
        healthy = session.submit(star_query(), label="healthy")
        session.run_all()

        assert [handle.label for handle in (doomed, healthy)] == ["doomed", "healthy"]
        assert doomed.failed
        assert "SimulatedFailure" in doomed.schedule.error
        assert doomed.schedule.busy_seconds > 0.0
        assert not healthy.failed
        assert healthy.schedule.error is None
        assert len(healthy.result().rows) > 0


class TestFailureUnderSpaceSharing:
    def test_sibling_queries_survive_a_mid_flight_failure(self):
        solo = build_star_session().execute(star_query())
        session = build_star_session()
        scheduler = JobScheduler(session.executor, SchedulerConfig(job_slots=2))
        doomed = submit_strategy(scheduler, star_query(), DoomedStrategy(), session)
        healthy = submit_strategy(
            scheduler, star_query(), make_optimizer("dynamic"), session
        )
        scheduler.run_all()
        assert doomed.failed
        assert healthy.done
        assert healthy.result().rows == solo.rows
