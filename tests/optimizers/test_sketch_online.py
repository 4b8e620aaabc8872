"""Sketch-online planner tests: determinism, verification, correctness."""

import pytest

from repro.bench.runner import workbench_for_query
from repro.bench.sweep import Key, execute
from repro.spec import PlannerSpec
from repro.testing import evaluate_reference, rows_equal_unordered
from tests.engine.equivalence import run_fingerprint


class TestByteDeterminism:
    """Repeated runs must be byte-identical on every observable facet —
    rows, metrics (repr-exact floats), plan, phases, trace and timeline."""

    @pytest.mark.parametrize("label", ("J2", "Q9"))
    def test_repeated_runs_identical(self, label):
        first = run_fingerprint(label, "sketch_online")
        second = run_fingerprint(label, "sketch_online")
        assert first == second


class TestVerifierClean:
    @pytest.mark.parametrize("label", ("J1", "J2", "J3"))
    def test_job_suite_zero_diagnostics(self, label):
        stats = workbench_for_query(label, 10).session.executor.verifier_stats
        jobs_before, found_before = stats.jobs_verified, stats.diagnostics_found
        queries_before = stats.queries_verified
        # A finding would raise PlanVerificationError out of the run.
        execute(Key(label, 10, "sketch_online"))
        assert stats.jobs_verified > jobs_before
        assert stats.queries_verified == queries_before + 1
        assert stats.diagnostics_found == found_before


class TestCorrectness:
    def test_j2_matches_reference(self):
        bench = workbench_for_query("J2", 10)
        query = bench.query("J2")
        result = execute(Key("J2", 10, "sketch_online"))
        assert rows_equal_unordered(
            result.rows, evaluate_reference(query, bench.session)
        )

    def test_adversarial_j2_matches_dynamic(self):
        sketch = execute(Key("J2", 10, "sketch_online", skew=1.1, correlation=0.9))
        dynamic = execute(Key("J2", 10, "dynamic", skew=1.1, correlation=0.9))
        assert rows_equal_unordered(sketch.rows, dynamic.rows)


class TestExecutionShape:
    def test_one_sketch_pass_per_table_then_final(self):
        result = execute(Key("J2", 10, "sketch_online"))
        assert result.phases[-1] == "final"
        sketch_phases = [p for p in result.phases if p.startswith("sketch:")]
        assert len(sketch_phases) == 5  # one per FROM entry of J2
        assert len(result.phases) == 6

    def test_sketch_passes_are_charged(self):
        """The pre-filtering scans cost simulated time (scan + sketch
        maintenance) even though they materialize nothing."""
        result = execute(Key("J2", 10, "sketch_online"))
        assert result.metrics.stats > 0
        assert result.metrics.scan > 0
        assert result.metrics.jobs == 6

    def test_estimates_recorded(self):
        """The final job carries estimate records, so the Q-error report
        can tabulate the strategy."""
        from repro.obs.report import qerror_stats

        result = execute(Key("J2", 10, "sketch_online"))
        assert qerror_stats(result.trace)["records"] >= 1

    def test_plannerspec_accepts_inl(self):
        spec = PlannerSpec.of("sketch_online", inl_enabled=True)
        assert spec.make().inl_enabled is True
