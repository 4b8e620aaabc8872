"""Verify-on-compile gate: always on, zero simulated cost.

The gate sits in ``run_request`` — the single execution seam, which only
the scheduler calls — so these tests cover blocking and scheduled runs, the
raise-on-diagnostics behavior, and the load-bearing guarantee: verification
never changes a single byte of schedules, metrics, or traces. There is no
switch to turn it off; the zero-cost test stubs the three gate entry points
out where they are called instead.
"""

from dataclasses import asdict

import pytest

from repro.analysis.dataflow import QUERY_RULES_CHECKED
from repro.analysis.diagnostics import PlanVerificationError
from repro.analysis.runtime import verify_before_launch
from repro.analysis.verifier import RULES_CHECKED_PER_JOB
from repro.engine.job import Job
from repro.engine.metrics import JobMetrics
from repro.engine.operators.scan import ReaderOp
from repro.engine.operators.sink import SinkOp
from repro.engine.scheduler.request import JobRequest, QueryRun
from repro.optimizers import available_strategies
from repro.spec import PlannerSpec

from tests.conftest import build_star_session, star_query

ALL_STRATEGIES = sorted(available_strategies())


def broken_request(session) -> JobRequest:
    job = Job(
        SinkOp(ReaderOp("__q1_i0"), "i1", ()), label="broken", phase="join-1"
    )
    run = QueryRun(star_query(), session, "broken", "__q1")
    return run.job("join-1", job, kind="join")


class TestGateDefaultOn:
    def test_execution_verifies_jobs(self):
        session = build_star_session()
        session.execute(star_query())
        stats = session.executor.verifier_stats
        assert stats.jobs_verified > 0
        assert stats.diagnostics_found == 0
        assert stats.wall_seconds > 0.0

    def test_broken_job_raises_before_launch(self):
        session = build_star_session()
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_before_launch(session.executor, broken_request(session))
        assert "P002" in excinfo.value.codes()
        assert excinfo.value.job_label == "broken"

    def test_virtual_cost_requests_skip_gate(self):
        session = build_star_session()
        run = QueryRun(star_query(), session, "pilot", "__q1")
        request = run.charge("pilot", JobMetrics(), kind="pilot")
        verify_before_launch(session.executor, request)
        assert session.executor.verifier_stats.jobs_verified == 0


class TestTraceAndExplain:
    def test_trace_records_verifications(self):
        session = build_star_session()
        result = session.execute(star_query())
        records = result.trace.verifications
        assert records
        assert all(record.clean for record in records)
        # Per-job gate records, plus exactly one query-level (Q-rule) record
        # appended when the scheduler finished the query.
        job_records = [r for r in records if r.phase != "query"]
        query_records = [r for r in records if r.phase == "query"]
        assert job_records and all(
            record.rules_checked == RULES_CHECKED_PER_JOB
            for record in job_records
        )
        assert len(query_records) == 1
        assert query_records[0].rules_checked == QUERY_RULES_CHECKED
        assert "verifications" in result.trace.to_dict()

    def test_failed_verification_recorded_in_trace(self):
        session = build_star_session()
        request = broken_request(session)
        with pytest.raises(PlanVerificationError):
            verify_before_launch(session.executor, request)
        (record,) = request.run.tracer.verifications
        assert not record.clean
        assert "P002" in record.codes

    def test_explain_reports_verifier_summary(self):
        session = build_star_session()
        result = session.execute(star_query())
        jobs = [r for r in result.trace.verifications if r.phase != "query"]
        assert jobs
        assert all(record.clean for record in jobs)


#: every place a gate entry point is called from, as ``module.name``
GATE_CALL_SITES = (
    "repro.engine.scheduler.request.verify_before_launch",
    "repro.core.driver.verify_plan_before_jobgen",
    "repro.optimizers.transfer.verify_plan_before_jobgen",
    "repro.analysis.runtime.verify_query_completion",
)


class TestZeroSimulatedCost:
    """Verifier on vs off is byte-identical in everything simulated."""

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_verifier_off_matches_on(self, name, monkeypatch):
        on_session = build_star_session()
        on = on_session.execute(star_query(), PlannerSpec.of(name))
        assert on_session.executor.verifier_stats.jobs_verified > 0

        for site in GATE_CALL_SITES:
            monkeypatch.setattr(site, lambda *args, **kwargs: [])
        off_session = build_star_session()
        off = off_session.execute(star_query(), PlannerSpec.of(name))
        # Nothing verified: GATE_CALL_SITES really is every call site.
        stats = off_session.executor.verifier_stats
        checks = stats.jobs_verified + stats.plans_verified + stats.queries_verified
        assert checks == 0

        assert off.rows == on.rows
        assert off.plan_description == on.plan_description
        assert off.phases == on.phases
        assert asdict(off.metrics) == asdict(on.metrics)
        assert off.seconds == on.seconds

    def test_verification_records_are_deterministic(self):
        # Same query twice -> identical verification records (codes and
        # counts only — never host wall time, which would break replays).
        first = build_star_session().execute(star_query())
        second = build_star_session().execute(star_query())
        assert [r.to_dict() for r in first.trace.verifications] == [
            r.to_dict() for r in second.trace.verifications
        ]
