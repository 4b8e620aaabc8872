"""Fault tolerance via re-optimization checkpoints (Section 8 future work).

"Runtime dynamic optimization can also be used as a way to achieve
fault-tolerance by integrating checkpoints. That would help the system to
recover from a failure by not having to start over from the beginning of a
long-running query." — every materialized re-optimization point doubles as
a checkpoint; a failed driver resumes from the last one without repeating
completed join stages.
"""

import pytest

from repro.bench.runner import workbench_for_query
from repro.core.driver import DynamicOptimizer, SimulatedFailure
from repro.testing import evaluate_reference, rows_equal_unordered

from tests.conftest import build_star_session, star_query


class TestCheckpointResume:
    def run_with_failure(self, session, query, fail_after):
        optimizer = DynamicOptimizer(fail_after_jobs=fail_after)
        with pytest.raises(SimulatedFailure) as excinfo:
            optimizer.execute(query, session)
        return optimizer, excinfo.value.checkpoint

    def test_resume_after_pushdown_failure(self):
        session = build_star_session()
        query = star_query()
        optimizer, checkpoint = self.run_with_failure(session, query, fail_after=2)
        result = optimizer.resume(checkpoint, session)
        session.reset_intermediates()
        assert rows_equal_unordered(result.rows, evaluate_reference(query, session))

    def test_resume_after_join_stage_failure(self):
        bench = workbench_for_query("Q17", 10)
        query = bench.query("Q17")
        optimizer, checkpoint = self.run_with_failure(
            bench.session, query, fail_after=5
        )
        # completed stages are on disk already, under the run's namespace
        prefix = f"{checkpoint.run.namespace}__join"
        assert any(n.startswith(prefix) for n in bench.session.datasets.names())
        result = optimizer.resume(checkpoint, bench.session)
        reference_session_rows = result.rows
        bench.session.reset_intermediates()
        clean = DynamicOptimizer().execute(query, bench.session)
        bench.session.reset_intermediates()
        assert rows_equal_unordered(reference_session_rows, clean.rows)

    def test_no_work_repeated_after_resume(self):
        bench = workbench_for_query("Q17", 10)
        query = bench.query("Q17")
        optimizer, checkpoint = self.run_with_failure(
            bench.session, query, fail_after=5
        )
        jobs_before = checkpoint.run.metrics.jobs
        result = optimizer.resume(checkpoint, bench.session)
        bench.session.reset_intermediates()
        clean = DynamicOptimizer().execute(query, bench.session)
        bench.session.reset_intermediates()
        # total job count (checkpointed + resumed) equals a clean run's
        assert result.metrics.jobs == clean.metrics.jobs
        assert jobs_before < clean.metrics.jobs

    def test_checkpoint_carries_reconstructed_query(self):
        bench = workbench_for_query("Q17", 10)
        query = bench.query("Q17")
        _, checkpoint = self.run_with_failure(bench.session, query, fail_after=5)
        # after 3 pushdowns + 2 join stages, two FROM entries were merged
        assert len(checkpoint.current.tables) == len(query.tables) - 2
        assert checkpoint.iteration == 2
        bench.session.reset_intermediates()

    def test_failure_fires_only_once(self):
        session = build_star_session()
        optimizer = DynamicOptimizer(fail_after_jobs=1)
        with pytest.raises(SimulatedFailure) as excinfo:
            optimizer.execute(star_query(), session)
        result = optimizer.resume(excinfo.value.checkpoint, session)
        session.reset_intermediates()
        assert result.phases[-1] == "final"
