"""Tracing subsystem: span structure, clock model, exports, zero cost."""

from __future__ import annotations

import json

import pytest

from repro.obs import EstimateRecord, Tracer, q_error
from repro.optimizers import OPTIMIZERS
from tests.conftest import build_star_session, star_query


class TestQError:
    def test_perfect_estimate(self):
        assert q_error(100.0, 100.0) == 1.0

    def test_symmetric(self):
        assert q_error(10.0, 1000.0) == q_error(1000.0, 10.0) == 100.0

    def test_both_empty_is_perfect(self):
        assert q_error(0.0, 0.0) == 1.0

    def test_one_sided_emptiness_is_unbounded(self):
        assert q_error(0.0, 5.0) == float("inf")
        assert q_error(5.0, 0.0) == float("inf")

    def test_record_property(self):
        record = EstimateRecord("final", "join", 50.0, 200.0)
        assert record.q_error == 4.0
        assert record.to_dict()["q_error"] == 4.0


@pytest.fixture(scope="module")
def traced_star():
    """One dynamic execution of the star query, trace attached."""
    session = build_star_session()
    result = session.execute(star_query(), "dynamic")
    return session, result


class TestSpanStructure:
    def test_root_is_query_span(self, traced_star):
        _, result = traced_star
        assert result.trace.root.kind == "query"
        assert result.trace.root.start_seconds == 0.0
        assert result.trace.root.end_seconds == pytest.approx(result.seconds)

    def test_phase_spans_match_result_phases(self, traced_star):
        _, result = traced_star
        names = [span.name for span in result.trace.phase_spans()]
        assert names == result.phases

    def test_phase_spans_are_root_children(self, traced_star):
        _, result = traced_star
        root = result.trace.root
        assert [child.kind for child in root.children] == ["phase"] * len(
            root.children
        )

    def test_spans_nest_in_time(self, traced_star):
        _, result = traced_star
        for span in result.trace.spans():
            assert span.end_seconds >= span.start_seconds
            for child in span.children:
                assert child.start_seconds >= span.start_seconds - 1e-9
                assert child.end_seconds <= span.end_seconds + 1e-9

    def test_phases_are_contiguous_on_the_clock(self, traced_star):
        _, result = traced_star
        phases = result.trace.phase_spans()
        cursor = 0.0
        for span in phases:
            assert span.start_seconds == pytest.approx(cursor)
            cursor = span.end_seconds
        assert cursor == pytest.approx(result.seconds)

    def test_operator_spans_under_every_phase(self, traced_star):
        _, result = traced_star
        for phase in result.trace.phase_spans():
            kinds = {s.kind for s in phase.children}
            assert kinds == {"operator"}

    def test_operator_costs_never_negative(self, traced_star):
        _, result = traced_star
        for span in result.trace.spans():
            for component, value in span.cost.items():
                assert value >= 0.0, (span.name, component, value)
            for counter, value in span.counters.items():
                assert value >= 0, (span.name, counter, value)

    def test_scan_counters_attributed_to_scan_operators(self, traced_star):
        _, result = traced_star
        for span in result.trace.spans():
            if span.counters.get("tuples_scanned"):
                assert span.name.startswith("Scan"), span.name


class TestEstimateRecords:
    def test_every_reoptimization_point_recorded(self, traced_star):
        """Each pushdown and each join stage compares estimate vs actual."""
        _, result = traced_star
        trace = result.trace
        recorded_phases = {record.phase for record in trace.estimates}
        expected = {
            phase
            for phase in result.phases
            if phase.startswith(("pushdown:", "join:")) or phase == "final"
        }
        assert expected <= recorded_phases

    def test_pushdown_estimates_live_on_their_phase_spans(self, traced_star):
        """A push-down's estimate is carried by its phase span; its record
        reads the span, names the phase and comes last in it."""
        _, result = traced_star
        trace = result.trace
        pushdowns = [
            span for span in trace.phase_spans() if span.name.startswith("pushdown:")
        ]
        assert pushdowns
        for span in pushdowns:
            record = trace.estimates_for(span.name)[-1]
            assert record.operator == span.name
            assert span.modeled_rows_out > 0.0
            assert (span.estimated_rows, span.modeled_rows_out) == (
                record.estimated_rows,
                record.actual_rows,
            )

    def test_actuals_are_measured_modeled_rows(self, traced_star):
        _, result = traced_star
        for record in result.trace.estimates:
            assert record.actual_rows >= 0.0
            assert record.estimated_rows >= 0.0

    def test_final_estimate_is_last(self, traced_star):
        _, result = traced_star
        trace = result.trace
        assert trace.final_estimate() == trace.estimates[-1]
        assert trace.final_estimate().phase == "final"
        assert trace.final_q_error() >= 1.0
        assert max(r.q_error for r in trace.estimates) >= trace.final_q_error()


class TestExports:
    def test_to_json_round_trips(self, traced_star):
        _, result = traced_star
        payload = json.loads(result.trace.to_json())
        assert payload["query"].startswith("dynamic:")
        assert payload["total_seconds"] == pytest.approx(result.seconds)
        assert payload["spans"]["kind"] == "query"
        assert len(payload["estimates"]) == len(result.trace.estimates)

    def test_to_json_indent(self, traced_star):
        _, result = traced_star
        assert json.loads(result.trace.to_json(indent=2)) == json.loads(
            result.trace.to_json()
        )

    def test_chrome_trace_round_trips(self, traced_star):
        _, result = traced_star
        payload = json.loads(result.trace.to_chrome_trace())
        events = payload["traceEvents"]
        assert len(events) == len(result.trace.spans())
        assert {event["ph"] for event in events} == {"X"}
        root = events[0]
        assert root["dur"] == pytest.approx(result.seconds * 1e6)

    def test_explain_analyze_renders(self, traced_star):
        _, result = traced_star
        report = result.explain_analyze()
        assert "EXPLAIN ANALYZE" in report
        for phase in result.phases:
            assert f"phase {phase}" in report
        assert "est=" in report
        assert "q=" in report
        assert "estimate accuracy (re-optimization points):" in report


class TestAllOptimizersTraced:
    """Every registered strategy must produce a usable trace + report."""

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_trace_with_estimates(self, name):
        session = build_star_session()
        result = session.execute(star_query(), name)
        trace = result.trace
        assert trace is not None
        assert [s.name for s in trace.phase_spans()] == result.phases
        assert trace.estimates, name
        report = result.explain_analyze()
        assert "est=" in report
        assert "q=" in report
        json.loads(trace.to_json())


class TestVirtualPassCharges:
    """A virtual-cost pass runs no operator, so its phase span carries its
    charge: the cost components and the tuples it scanned."""

    @pytest.mark.parametrize(
        "name, prefix",
        [("pilot_run", "pilot:"), ("sketch_online", "sketch:"),
         ("predicate_transfer", "transfer-build:")],
    )  # fmt: skip
    def test_phase_span_holds_the_charge(self, name, prefix):
        session = build_star_session()
        result = session.execute(star_query(), name)
        passes = [s for s in result.trace.phase_spans() if s.name.startswith(prefix)]
        assert passes, result.phases
        report = result.explain_analyze().splitlines()
        startup = session.executor.cost.job_startup()
        for span in passes:
            assert not span.children
            assert span.cost["startup"] == startup
            assert 0.0 not in span.cost.values()
            assert span.self_seconds == pytest.approx(span.duration_seconds)
            assert span.counters["tuples_scanned"] > 0
            line = next(l for l in report if l.startswith(f"phase {span.name} "))
            assert f"startup={startup:.2f}s" in line
            assert f"tuples_scanned={span.counters['tuples_scanned']:,}" in line

    def test_executed_phases_carry_no_phase_charge(self, traced_star):
        _, result = traced_star
        for span in result.trace.phase_spans():
            assert span.cost == {} and span.counters == {}


class TestZeroCost:
    def test_tracer_does_not_change_metrics(self):
        """Tracing only reads JobMetrics: same job, same simulated time."""
        from repro.algebra.jobgen import build_final_job
        from repro.algebra.toolkit import PlannerToolkit
        from repro.core.driver import greedy_full_plan

        session = build_star_session()
        query = star_query()
        plan = greedy_full_plan(PlannerToolkit(query, session))
        job = build_final_job(plan, query, session.datasets)
        data_plain, metrics_plain = session.executor.execute(
            job, query.parameters, session.statistics.copy()
        )
        data_traced, metrics_traced = session.executor.execute(
            job, query.parameters, session.statistics.copy(), tracer=Tracer()
        )
        assert metrics_plain == metrics_traced
        assert data_plain.all_rows() == data_traced.all_rows()

    def test_result_seconds_equal_trace_end(self):
        session = build_star_session()
        result = session.execute(star_query(), "dynamic")
        assert result.trace.root.end_seconds == pytest.approx(result.seconds)
