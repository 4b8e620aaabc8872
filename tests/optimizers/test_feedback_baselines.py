"""Pilot-run and INGRES-like baseline tests."""

import pytest

from repro.algebra.toolkit import alias_stats_key
from repro.core.driver import DynamicOptimizer
from repro.engine.scheduler import QueryRun, run_solo
from repro.optimizers.ingres import IngresLikeOptimizer
from repro.optimizers.pilot_run import PilotRunOptimizer, ScaledFieldStatistics
from repro.stats.collector import FieldStatistics
from repro.testing import evaluate_reference, rows_equal_unordered

from tests.conftest import build_star_session, star_query


@pytest.fixture
def session():
    return build_star_session()


class TestScaledFieldStatistics:
    def test_scales_distinct_count(self):
        sample = FieldStatistics("k")
        sample.observe_batches([list(range(10))])
        scaled = ScaledFieldStatistics.from_sample(sample, 5.0)
        assert scaled.distinct_count == pytest.approx(
            sample.distinct_count * 5.0, rel=0.01
        )

    def test_scale_one_is_identity(self):
        sample = FieldStatistics("k")
        sample.observe_batches([[1]])
        scaled = ScaledFieldStatistics.from_sample(sample, 1.0)
        assert scaled.distinct_count == sample.distinct_count


def pilot_run(optimizer, session) -> QueryRun:
    """Run the pilot stages alone; the run holds what they produced."""

    def stages(namespace):
        run = QueryRun(star_query(), session, optimizer.name, namespace)
        yield from optimizer.prepare_stages(run, session)
        return run

    return run_solo(star_query(), stages, session)


class TestPilotRun:
    def test_registers_per_alias_entries(self, session):
        run = pilot_run(PilotRunOptimizer(sample_limit=20), session)
        for alias in star_query().aliases:
            entry = run.statistics.get(alias_stats_key(alias))
            assert entry.predicates_applied
        assert run.metrics.jobs == 4
        assert run.metrics.startup > 0
        assert [span.name for span in run.tracer.finish().phase_spans()] == [
            f"pilot:{a}" for a in star_query().aliases
        ]

    def test_pilot_jobs_count_the_rows_they_scan(self, session):
        """Each pilot scans at least its sample and at most its table."""
        run = pilot_run(PilotRunOptimizer(sample_limit=20), session)
        query = star_query()
        stored = sum(
            session.datasets.get(query.table(alias).dataset).row_count
            for alias in query.aliases
        )
        assert 20 * len(query.aliases) <= run.metrics.tuples_scanned < stored

    def test_sample_estimates_selectivity(self, session):
        run = pilot_run(PilotRunOptimizer(sample_limit=10), session)
        # dc filter keeps 1/3 of rows; sample-based estimate should be close
        entry = run.statistics.get(alias_stats_key("dc"))
        assert entry.row_count == pytest.approx(10, rel=0.5)

    def test_no_pushdown_phase(self, session):
        result = PilotRunOptimizer(sample_limit=20).execute(star_query(), session)
        session.reset_intermediates()
        assert not any(p.startswith("pushdown") for p in result.phases)
        assert any(p.startswith("pilot:") for p in result.phases)

    def test_correct_rows(self, session):
        result = PilotRunOptimizer(sample_limit=20).execute(star_query(), session)
        session.reset_intermediates()
        assert rows_equal_unordered(
            result.rows, evaluate_reference(star_query(), session)
        )

    def test_costs_more_than_dynamic_on_equal_plans(self, session):
        pilot = PilotRunOptimizer(sample_limit=20).execute(star_query(), session)
        session.reset_intermediates()
        dynamic = DynamicOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        if pilot.plan_description == dynamic.plan_description:
            assert pilot.seconds > dynamic.seconds * 0.8


class TestIngresLike:
    def test_uses_input_cardinality_rank(self):
        from repro.core.planner import rank_by_input_cardinality

        assert IngresLikeOptimizer().rank is rank_by_input_cardinality

    def test_no_online_sketches(self, session):
        result = IngresLikeOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert result.metrics.stats == 0.0 or result.metrics.stats < 1e-3

    def test_correct_rows(self, session):
        result = IngresLikeOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert rows_equal_unordered(
            result.rows, evaluate_reference(star_query(), session)
        )

    def test_still_decomposes_with_pushdown(self, session):
        result = IngresLikeOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        assert any(p.startswith("pushdown") for p in result.phases)
