"""Mutation tests for the query-level dataflow verifier (Q001-Q006).

Mirrors test_verifier.py's discipline one layer up: a clean baseline
sequence first, then one planted cross-job defect per test asserting the
expected Q-code — plus integration pins proving live executions (the
dynamic driver's replan-recompiled jobs, the transfer prelude, the
scheduler's query-completion hook) verify clean end to end.
"""

import pytest

from repro.analysis.dataflow import (
    JobDataflow,
    check_transfer_rewrite,
    job_io,
    verify_query_dataflow,
)
from repro.analysis.diagnostics import PlanVerificationError
from repro.core import predicate_transfer
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
        # A flagged pass publishes nothing: the registry keeps its signature.
        assert registry == {"t1": ("da", "fact")}

    def test_a_flagged_query_leaves_the_registry_as_it_found_it(self):
        def query(scans):
            return [
                job("join-1", "j1", scans=scans, writes=("__q3__i0",), cache_token="t"),
                job("final", "f", reads=("__q3__i0",)),
            ]

        registry = {"t": ("fact",)}
        assert "Q004" in codes(
            verify_query_dataflow(query(("dim",)), NS, token_registry=registry)
        )
        assert registry == {"t": ("fact",)}
        # a later correct query holding the token stays clean
        assert verify_query_dataflow(query(("fact",)), NS, token_registry=registry) == []

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
    """Q006 in its two places: probe-after-build over the job sequence, and
    the rewiring audit the transfer prelude runs on its own rewrite."""

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
            job("final", "f", reads=("__q3__t_fact_1",), scans=("da",)),
        ]

    def rewrite(self, **changes):
        """A sound rewrite of (da, fact) with fact reduced; ``changes``
        overrides one argument of ``check_transfer_rewrite``."""
        arguments = {
            "reduced": ("fact",),
            "intermediates": {"fact": "__q3__t_fact_1"},
            "original": {"da": "da", "fact": "fact"},
            "rewritten": {"da": "da", "fact": "__q3__t_fact_1"},
            "written": {"da", "fact", "__q3__t_fact_1"},
        }
        arguments.update(changes)
        return check_transfer_rewrite(**arguments)

    def test_sound_transfer_is_clean(self):
        assert verify_query_dataflow(self.transfer_records(), NS) == []
        assert self.rewrite() == []

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
        assert "Q006" in codes(self.rewrite(reduced=("fact", "da")))

    def test_rewrite_dropped_an_alias(self):
        found = self.rewrite(rewritten={"fact": "__q3__t_fact_1"})
        assert "Q006" in codes(found)

    def test_rewrite_missed_a_reduced_alias(self):
        found = self.rewrite(rewritten={"da": "da", "fact": "fact"})
        assert "Q006" in codes(found)

    def test_unmaterialized_intermediate(self):
        found = self.rewrite(written={"da", "fact"})
        assert "Q006" in codes(found)
        assert any("never materialized" in d.message for d in found)

    def test_rewiring_an_unreduced_alias(self):
        found = self.rewrite(rewritten={"da": "elsewhere", "fact": "__q3__t_fact_1"})
        assert "Q006" in codes(found)

    def test_a_skipped_rewrite_fails_before_any_join_launches(self, monkeypatch):
        # replace_filtered_table "forgets" one reduced alias: the prelude's
        # own audit fails the query before the loop compiles a join.
        rewire = predicate_transfer.replace_filtered_table
        skipped = []

        def forgetful(query, alias, name):
            if not skipped:
                skipped.append(alias)
                return query
            return rewire(query, alias, name)

        monkeypatch.setattr(predicate_transfer, "replace_filtered_table", forgetful)
        session = build_star_session()
        handle = session.submit(
            star_query(), PlannerSpec.of("dynamic", pre_filter="transfer")
        )
        session.run_all()

        with pytest.raises(PlanVerificationError) as excinfo:
            handle.result()
        assert excinfo.value.codes() == ("Q006",)
        assert skipped[0] in str(excinfo.value)
        labels = [event.label for event in session.scheduler.timeline.events]
        assert any(label.startswith("transfer") for label in labels)
        assert not any(
            label.startswith("join:") or label == "final" for label in labels
        )


class TestDataflowExtraction:
    def test_reader_sink_scan_extraction(self):
        j = Job(
            SinkOp(ReaderOp("__q1__i0"), "__q1__i1", ()),
            label="step",
            phase="join-2",
        )
        reads, writes, scans, probes = job_io(j)
        assert reads == ("__q1__i0",)
        assert writes == ("__q1__i1",)
        assert scans == probes == ()

    def test_scans_are_sorted_and_deduped(self):
        j = Job(SinkOp(ScanOp("fact", "fact"), "__q3__i0", ()), phase="join-1")
        assert job_io(j)[2] == ("fact",)

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
        # Every job compiled at a re-optimization point (each join and the
        # final job) passed the launch gate, the query-level pass ran
        # exactly once, and all is clean.
        compiled = [r for r in result.trace.dataflows if r.kind in ("join", "final")]
        assert compiled and stats.jobs_verified >= len(compiled)
        assert stats.queries_verified == 1
        assert stats.diagnostics_found == 0

    def test_transfer_run_records_builds_and_summary(self):
        # Each build pass's record sits on its own phase span; the rewrite
        # leaves no summary record (the prelude audited it where it made it).
        session = build_star_session()
        result = session.execute(
            star_query(), PlannerSpec.of("dynamic", pre_filter="transfer")
        )
        builds = [
            span
            for span in result.trace.phase_spans()
            if span.name.startswith("transfer-build:")
        ]
        assert builds
        for span in builds:
            record = span.dataflow
            assert record.builds and record.kind == "transfer"
            assert record.phase == record.label == span.name
        records = result.trace.dataflows
        assert records == [
            span.dataflow
            for span in result.trace.phase_spans()
            if span.dataflow is not None
        ]
        assert all(isinstance(r, JobDataflow) for r in records)

    def test_query_pass_meters_host_time_not_simulated(self):
        session = build_star_session()
        result = session.execute(star_query())
        stats = session.executor.verifier_stats
        assert stats.queries_verified == 1
        assert stats.total_wall_seconds > 0.0
        # Zero simulated cost: the metrics object knows nothing of the pass.
        assert result.metrics.total_seconds == pytest.approx(
            result.trace.root.end_seconds
        )
