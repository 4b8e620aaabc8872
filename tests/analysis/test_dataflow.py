"""Mutation tests for the query-level dataflow verifier (Q001-Q006).

Mirrors test_verifier.py's discipline one layer up: a clean baseline
sequence first, then one planted cross-job defect per test asserting the
expected Q-code — plus integration pins proving live executions (the
dynamic driver's replan-recompiled jobs, the transfer prelude, the
scheduler's query-completion hook) verify clean end to end.
"""

import pytest

from repro.analysis.dataflow import (
    QUERY_RULES_CHECKED,
    JobDataflow,
    TransferSummary,
    dataflow_of,
    verify_query_dataflow,
)
from repro.engine.job import Job
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.sink import SinkOp
from repro.obs.trace import Span
from repro.spec import PlannerSpec

from tests.conftest import build_star_session, star_query


#: the namespace every query-level case runs under, as the scheduler's
#: third query would
NS = "__q3"


def codes(diagnostics) -> list[str]:
    return [d.code for d in diagnostics]


def job(phase, label, reads=(), writes=(), scans=(), probes=(), builds=(), **kw):
    return JobDataflow(
        phase=phase,
        label=label,
        reads=tuple(reads),
        writes=tuple(writes),
        scans=tuple(scans),
        probes=tuple(probes),
        builds=tuple(builds),
        **kw,
    )


def clean_sequence() -> list[JobDataflow]:
    return [
        job("join-1", "j1", scans=("fact", "da"), writes=("__q3__i0",)),
        job(
            "join-2", "j2", reads=("__q3__i0",), scans=("db",), writes=("__q3__i1",)
        ),
        job("final", "f", reads=("__q3__i1",), scans=("dc",)),
    ]


class TestCleanBaseline:
    def test_clean_sequence_has_no_findings(self):
        assert verify_query_dataflow(clean_sequence(), NS) == []

    def test_clean_namespaced_sequence(self):
        records = [
            job("join-1", "j1", scans=("fact",), writes=("__q3__i0",)),
            job("final", "f", reads=("__q3__i0",)),
        ]
        assert verify_query_dataflow(records, NS) == []

    def test_rule_count_constant(self):
        assert QUERY_RULES_CHECKED == 6


class TestQ001DeadSink:
    def test_unread_intermediate(self):
        records = clean_sequence()
        records[1] = job(
            "join-2",
            "j2",
            reads=("__q3__i0",),
            scans=("db",),
            writes=("__q3__i1", "__q3__i_dead"),
        )
        assert "Q001" in codes(verify_query_dataflow(records, NS))

    def test_final_phase_write_is_dead(self):
        records = clean_sequence()
        records[2] = job("final", "f", reads=("__q3__i1",), writes=("__q3__i2",))
        assert "Q001" in codes(verify_query_dataflow(records, NS))


class TestQ002ReadBeforeWrite:
    def test_read_of_never_written_intermediate(self):
        records = [job("final", "f", reads=("__q3__i9",))]
        assert "Q002" in codes(verify_query_dataflow(records, NS))

    def test_read_before_the_write_happens(self):
        records = [
            job("join-1", "j1", reads=("__q3__i0",), writes=("__q3__i1",)),
            job("join-2", "j2", scans=("fact",), writes=("__q3__i0",)),
            job("final", "f", reads=("__q3__i1", "__q3__i0")),
        ]
        assert "Q002" in codes(verify_query_dataflow(records, NS))

    def test_foreign_namespace_read(self):
        records = [
            job("join-1", "j1", scans=("fact",), writes=("__q3__i0",)),
            job("final", "f", reads=("__q3__i0", "__q7__i0")),
        ]
        found = verify_query_dataflow(records, NS)
        assert codes(found) == ["Q002"]
        assert "foreign" in found[0].message


class TestQ003NamespaceLeak:
    def test_write_outside_namespace(self):
        records = [
            job("join-1", "j1", scans=("fact",), writes=("i0",)),
            job("final", "f", reads=("i0",)),
        ]
        found = verify_query_dataflow(records, NS)
        assert "Q003" in codes(found)

    def test_wrong_namespace_write(self):
        records = [
            job("join-1", "j1", scans=("fact",), writes=("__q7__i0",)),
            job("final", "f", reads=("__q7__i0",)),
        ]
        found = verify_query_dataflow(records, NS)
        assert "Q003" in codes(found)


class TestQ004CacheTokens:
    def test_batch_key_of_unscanned_dataset(self):
        records = [job("final", "f", scans=("fact",), batch_key="db")]
        assert "Q004" in codes(verify_query_dataflow(records, NS))

    def test_namespaced_cache_token(self):
        records = [
            job(
                "join-1",
                "j1",
                scans=("fact",),
                writes=("__q3__i0",),
                cache_token="tt:__q3__fact:abc",
            ),
            job("final", "f", reads=("__q3__i0",)),
        ]
        assert "Q004" in codes(verify_query_dataflow(records, NS))

    def test_token_collision_within_query(self):
        records = [
            job(
                "join-1", "j1", scans=("fact",), writes=("__q3__i0",), cache_token="t1"
            ),
            job(
                "join-2",
                "j2",
                reads=("__q3__i0",),
                scans=("db",),
                writes=("__q3__i1",),
                cache_token="t1",
            ),
            job("final", "f", reads=("__q3__i1",)),
        ]
        assert "Q004" in codes(verify_query_dataflow(records, NS))

    def test_token_collision_across_queries_via_registry(self):
        registry = {"t1": ("da", "fact")}
        records = [
            job("join-1", "j1", scans=("db",), writes=("__q3__i0",), cache_token="t1"),
            job("final", "f", reads=("__q3__i0",)),
        ]
        found = verify_query_dataflow(records, NS, token_registry=registry)
        assert "Q004" in codes(found)
        # The pass republishes the latest signature for future queries.
        assert registry["t1"] == ("db",)

    def test_consistent_reuse_is_fine(self):
        registry = {"t1": ("fact",)}
        records = [
            job(
                "join-1", "j1", scans=("fact",), writes=("__q3__i0",), cache_token="t1"
            ),
            job("final", "f", reads=("__q3__i0",)),
        ]
        assert verify_query_dataflow(records, NS, token_registry=registry) == []


class FakeTrace:
    def __init__(self, root):
        self.root = root
        self.dataflows = []


def phase_span(name, start, end):
    return Span(name=name, kind="phase", start_seconds=start, end_seconds=end)


class TestQ005ChargeAttribution:
    def make_trace(self, spans, total):
        root = Span(name="q", kind="query", start_seconds=0.0, end_seconds=total)
        root.children = spans
        return FakeTrace(root)

    def test_contiguous_spans_are_clean(self):
        trace = self.make_trace(
            [phase_span("join-1", 0.0, 5.0), phase_span("final", 5.0, 9.0)], 9.0
        )
        found = verify_query_dataflow([], NS, trace=trace, metrics_total=9.0)
        assert found == []

    def test_gap_between_spans_leaks(self):
        trace = self.make_trace(
            [phase_span("join-1", 0.0, 5.0), phase_span("final", 6.5, 9.0)], 9.0
        )
        found = verify_query_dataflow([], NS, trace=trace, metrics_total=9.0)
        assert "Q005" in codes(found)
        assert "no span" in found[0].message

    def test_negative_gap_leaks(self):
        # A clock that moves backward between phases means a charge was
        # taken back after its span closed, or two spans own the same seconds.
        trace = self.make_trace(
            [phase_span("join-1", 0.0, 5.0), phase_span("final", 4.0, 9.0)], 9.0
        )
        found = verify_query_dataflow([], NS, trace=trace, metrics_total=9.0)
        assert codes(found) == ["Q005"]
        assert "before the previous phase ended" in found[0].message

    def test_total_mismatch_leaks(self):
        trace = self.make_trace([phase_span("final", 0.0, 9.0)], 9.0)
        found = verify_query_dataflow([], NS, trace=trace, metrics_total=11.0)
        assert "Q005" in codes(found)
        assert "bypassed" in found[0].message

    def test_audit_needs_both_trace_and_total(self):
        trace = self.make_trace([phase_span("final", 0.0, 9.0)], 9.0)
        assert verify_query_dataflow([], NS, trace=trace, metrics_total=None) == []


class TestQ006TransferSoundness:
    def transfer_records(self):
        return [
            job("transfer:build:da", "b", kind="transfer", builds=("fp1",)),
            job(
                "transfer:reduce:fact",
                "r",
                scans=("fact",),
                probes=("fp1",),
                writes=("__q3__t_fact_1",),
            ),
            TransferSummary(
                reduced=("fact",),
                intermediates=(("fact", "__q3__t_fact_1"),),
                original_tables=(("da", "da"), ("fact", "fact")),
                rewritten_tables=(("da", "da"), ("fact", "__q3__t_fact_1")),
            ),
            job("final", "f", reads=("__q3__t_fact_1",), scans=("da",)),
        ]

    def test_sound_transfer_is_clean(self):
        assert verify_query_dataflow(self.transfer_records(), NS) == []

    def test_probe_before_build(self):
        records = self.transfer_records()
        records[0], records[1] = records[1], records[0]
        assert "Q006" in codes(verify_query_dataflow(records, NS))

    def test_probe_of_unbuilt_filter(self):
        records = self.transfer_records()
        records[1] = job(
            "transfer:reduce:fact",
            "r",
            scans=("fact",),
            probes=("fp_ghost",),
            writes=("__q3__t_fact_1",),
        )
        assert "Q006" in codes(verify_query_dataflow(records, NS))

    def test_reduced_without_intermediate(self):
        records = self.transfer_records()
        records[2] = TransferSummary(
            reduced=("fact", "da"),
            intermediates=(("fact", "__q3__t_fact_1"),),
            original_tables=(("da", "da"), ("fact", "fact")),
            rewritten_tables=(("da", "da"), ("fact", "__q3__t_fact_1")),
        )
        assert "Q006" in codes(verify_query_dataflow(records, NS))

    def test_rewrite_dropped_an_alias(self):
        records = self.transfer_records()
        records[2] = TransferSummary(
            reduced=("fact",),
            intermediates=(("fact", "__q3__t_fact_1"),),
            original_tables=(("da", "da"), ("fact", "fact")),
            rewritten_tables=(("fact", "__q3__t_fact_1"),),
        )
        assert "Q006" in codes(verify_query_dataflow(records, NS))

    def test_rewrite_missed_a_reduced_alias(self):
        records = self.transfer_records()
        records[2] = TransferSummary(
            reduced=("fact",),
            intermediates=(("fact", "__q3__t_fact_1"),),
            original_tables=(("da", "da"), ("fact", "fact")),
            rewritten_tables=(("da", "da"), ("fact", "fact")),
        )
        assert "Q006" in codes(verify_query_dataflow(records, NS))

    def test_unmaterialized_intermediate(self):
        records = self.transfer_records()
        records[1] = job(
            "transfer:reduce:fact", "r", scans=("fact",), probes=("fp1",)
        )
        found = verify_query_dataflow(records, NS)
        assert "Q006" in codes(found)
        assert any("never materialized" in d.message for d in found)

    def test_rewiring_an_unreduced_alias(self):
        records = self.transfer_records()
        records[2] = TransferSummary(
            reduced=("fact",),
            intermediates=(("fact", "__q3__t_fact_1"),),
            original_tables=(("da", "da"), ("fact", "fact")),
            rewritten_tables=(("da", "elsewhere"), ("fact", "__q3__t_fact_1")),
        )
        assert "Q006" in codes(verify_query_dataflow(records, NS))


class TestDataflowExtraction:
    def test_reader_sink_scan_extraction(self):
        j = Job(
            SinkOp(ReaderOp("__q1__i0"), "__q1__i1", ()),
            label="step",
            phase="join-2",
        )
        record = dataflow_of(j)
        assert record.reads == ("__q1__i0",)
        assert record.writes == ("__q1__i1",)
        assert record.scans == ()
        assert record.replayed is False

    def test_scans_are_sorted_and_deduped(self):
        j = Job(SinkOp(ScanOp("fact", "fact"), "__q3__i0", ()), phase="join-1")
        assert dataflow_of(j).scans == ("fact",)

    def test_to_dict_round_trip_is_deterministic(self):
        record = job("join-1", "j1", scans=("fact",), writes=("__q3__i0",))
        assert record.to_dict() == record.to_dict()


class TestLiveIntegration:
    """Live executions must verify clean at every re-optimization point."""

    @pytest.mark.parametrize(
        "spec",
        [
            PlannerSpec.of("dynamic"),
            PlannerSpec.of("dynamic", pre_filter="transfer"),
            PlannerSpec.of("predicate_transfer"),
        ],
        ids=["dynamic", "dynamic+transfer", "predicate_transfer"],
    )
    def test_replanned_jobs_verify_clean_at_every_reopt_point(self, spec):
        session = build_star_session()
        result = session.execute(star_query(), spec)
        stats = session.executor.verifier_stats
        # Plan-time verification ran at the re-optimization points...
        assert stats.plans_verified > 0
        # ...the query-level pass ran exactly once, and everything is clean.
        assert stats.queries_verified == 1
        assert stats.diagnostics_found == 0
        assert all(record.clean for record in result.trace.verifications)
        query_records = [
            r for r in result.trace.verifications if r.phase == "query"
        ]
        assert len(query_records) == 1
        assert query_records[0].rules_checked == QUERY_RULES_CHECKED

    def test_transfer_run_records_builds_and_summary(self):
        session = build_star_session()
        result = session.execute(
            star_query(), PlannerSpec.of("dynamic", pre_filter="transfer")
        )
        records = result.trace.dataflows
        assert any(
            isinstance(r, JobDataflow) and r.kind == "transfer" and r.builds
            for r in records
        )
        assert any(isinstance(r, TransferSummary) for r in records)

    def test_query_pass_meters_host_time_not_simulated(self):
        session = build_star_session()
        result = session.execute(star_query())
        stats = session.executor.verifier_stats
        assert stats.query_wall_seconds > 0.0
        assert stats.total_wall_seconds >= stats.query_wall_seconds
        # Zero simulated cost: the metrics object knows nothing of the pass.
        assert result.metrics.total_seconds == pytest.approx(
            result.trace.root.end_seconds
        )
