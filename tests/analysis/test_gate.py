"""Verify-on-compile gate: always on, zero simulated cost.

The gate sits in ``run_request`` — the single execution seam, which only
the scheduler calls — so these tests cover blocking and scheduled runs, the
raise-on-diagnostics behavior, and the load-bearing guarantee: verification
never changes a single byte of schedules, metrics, or traces. There is no
switch to turn it off; the zero-cost test stubs the two gate entry points
out where they are called instead. The gate writes nothing to the trace:
a job's dataflow record is set on its phase span by ``run_request``, and
the executor's ``VerifierStats`` counts every check.
"""

from dataclasses import asdict, replace

import pytest

from repro.analysis.diagnostics import PlanVerificationError
from repro.analysis.runtime import verify_before_launch
from repro.cluster.config import ClusterConfig
from repro.core.driver import DynamicOptimizer
from repro.engine.job import Job
from repro.engine.metrics import JobMetrics
from repro.engine.operators.joins import JoinAlgorithm
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.sink import SinkOp
from repro.engine.scheduler.request import JobRequest, QueryRun, run_request
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
        assert stats.total_wall_seconds > 0.0

    def test_broken_job_raises_before_launch(self):
        session = build_star_session()
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_before_launch(session.executor, broken_request(session))
        assert "P002" in excinfo.value.codes()
        assert excinfo.value.job_label == "broken"

    def test_the_gate_leaves_the_trace_unchanged(self):
        # A failing check and a passing one alike: only VerifierStats move.
        session = build_star_session()
        failing = broken_request(session)
        run = failing.run
        passing = run.job(
            "join-1",
            Job(SinkOp(ScanOp("fact", "fact"), "__q1__i0", ()), label="ok"),
            kind="join",
        )
        before = run.tracer.finish().to_dict()
        with pytest.raises(PlanVerificationError):
            verify_before_launch(session.executor, failing)
        verify_before_launch(session.executor, passing)
        assert session.executor.verifier_stats.jobs_verified == 2
        assert run.tracer.finish().to_dict() == before

    def test_virtual_cost_requests_skip_gate(self):
        session = build_star_session()
        run = QueryRun(star_query(), session, "pilot", "__q1")
        request = run.charge("pilot", JobMetrics(), kind="pilot")
        verify_before_launch(session.executor, request)
        assert session.executor.verifier_stats.jobs_verified == 0


class TestTraceAndExplain:
    def test_trace_records_verifications(self):
        # Every gated job and the one query-level (Q-rule) pass count on the
        # executor; the trace carries no verification record, since a
        # finding would have failed the query.
        session = build_star_session()
        result = session.execute(star_query())
        stats = session.executor.verifier_stats
        # plain dynamic charges no virtual cost: every phase is one gated job
        assert stats.jobs_verified == len(result.phases)
        assert stats.queries_verified == 1
        assert stats.diagnostics_found == 0
        assert "verifications" not in result.trace.to_dict()

    def test_failed_verification_recorded_in_trace(self):
        # A failed check is counted on the executor; the failed job's
        # dataflow record is on its phase span, and the error carries the codes.
        session = build_star_session()
        request = broken_request(session)
        with pytest.raises(PlanVerificationError) as excinfo:
            run_request(session.executor, request)
        stats = session.executor.verifier_stats
        assert stats.jobs_verified == 1
        assert stats.diagnostics_found == len(excinfo.value.diagnostics)
        assert "P002" in excinfo.value.codes()
        trace = request.run.tracer.finish()
        (span,) = trace.phase_spans()
        assert span.name == "join-1"
        assert span.dataflow.label == "broken"
        assert trace.dataflows == [span.dataflow]

    def test_explain_reports_verifier_summary(self):
        session = build_star_session()
        text = session.execute(star_query()).explain_analyze()
        assert text
        stats = session.executor.verifier_stats
        assert stats.jobs_verified > 0
        assert stats.diagnostics_found == 0


class TestBadPickFailsAtTheGate:
    """The dynamic loop's picked join is checked once, at the launch gate:
    a bad pick fails the query there, before its job charges anything."""

    @pytest.mark.parametrize(
        ("code", "spoil"),
        [
            ("P005", lambda node: node.with_algorithm(JoinAlgorithm.BROADCAST)),
            ("P006", lambda node: replace(node, build_keys=(), probe_keys=())),
        ],
        ids=["over-budget-broadcast", "no-key-pairs"],
    )
    def test_a_bad_pick_fails_before_it_charges(self, code, spoil, monkeypatch):
        # A 1-byte budget: the planner sizes every build over it and picks
        # hash, so forcing BROADCAST keeps a recorded over-budget build.
        session = build_star_session(
            cluster=ClusterConfig(
                nodes=2, cores_per_node=2, broadcast_budget_bytes=1.0
            )
        )
        charged = []
        pick = DynamicOptimizer._pick_join

        def spoiled(self, state, planner, toolkit):
            picked = pick(self, state, planner, toolkit)
            charged.append(state.run.metrics.total_seconds)
            return replace(picked, node=spoil(picked.node))

        monkeypatch.setattr(DynamicOptimizer, "_pick_join", spoiled)
        handle = session.submit(star_query(), PlannerSpec.of("dynamic"))
        session.run_all()

        with pytest.raises(PlanVerificationError) as excinfo:
            handle.result()
        assert code in excinfo.value.codes()
        # the push-down jobs before the pick ran and charged; the spoiled
        # join charged nothing, and busy time is the run's own total
        assert charged[0] > 0.0
        assert handle.schedule.busy_seconds == charged[0]


#: every place a gate entry point is called from, as ``module.name``
GATE_CALL_SITES = (
    "repro.engine.scheduler.request.verify_before_launch",
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
        checks = stats.jobs_verified + stats.queries_verified
        assert checks == 0

        assert off.rows == on.rows
        assert off.plan_description == on.plan_description
        assert off.phases == on.phases
        assert asdict(off.metrics) == asdict(on.metrics)
        assert off.seconds == on.seconds

    def test_verification_records_are_deterministic(self):
        # Same query twice -> identical traces and identical check counts
        # (never host wall time, which would break replays).
        first_session, second_session = build_star_session(), build_star_session()
        first = first_session.execute(star_query())
        second = second_session.execute(star_query())
        assert first.trace.to_dict() == second.trace.to_dict()
        counts = [
            (stats.jobs_verified, stats.queries_verified, stats.diagnostics_found)
            for stats in (
                first_session.executor.verifier_stats,
                second_session.executor.verifier_stats,
            )
        ]
        assert counts[0] == counts[1]
