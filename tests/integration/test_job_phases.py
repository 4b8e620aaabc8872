"""Figure 4: the original job splits into phase 1/2/3 subjobs."""

from repro.core.driver import DynamicOptimizer
from repro.bench.runner import workbench_for_query

from tests.conftest import build_star_session, star_query


class TestFigure4Phases:
    def test_star_query_phase_structure(self):
        session = build_star_session()
        result = DynamicOptimizer().execute(star_query(), session)
        session.reset_intermediates()
        kinds = []
        for phase in result.phases:
            kinds.append(phase.split(":")[0])
        # Phase 1 (pushdown sinks) strictly precede phase 2 (join sinks),
        # and the final (DistributeResult) job comes last.
        first_join = kinds.index("join")
        assert all(k == "pushdown" for k in kinds[:first_join])
        assert kinds[-1] == "final"

    def test_q17_has_three_pushdowns_and_reoptimization_points(self):
        bench = workbench_for_query("Q17", 10)
        result = DynamicOptimizer().execute(bench.query("Q17"), bench.session)
        bench.session.reset_intermediates()
        pushdowns = [p for p in result.phases if p.startswith("pushdown:")]
        joins = [p for p in result.phases if p.startswith("join:")]
        assert sorted(pushdowns) == ["pushdown:d1", "pushdown:d2", "pushdown:d3"]
        # 7 joins -> loop until 2 remain: 5 materialized join stages
        assert len(joins) == 5
        assert result.metrics.jobs == 3 + 5 + 1

    def test_q50_has_two_reoptimization_points(self):
        bench = workbench_for_query("Q50", 10)
        result = DynamicOptimizer().execute(bench.query("Q50"), bench.session)
        bench.session.reset_intermediates()
        joins = [p for p in result.phases if p.startswith("join:")]
        # "the four joins introduce two re-optimization points before the
        # remaining query has only two joins"
        assert len(joins) == 2

    def test_intermediates_registered_then_consumed(self):
        session = build_star_session()
        optimizer = DynamicOptimizer()
        optimizer.execute(star_query(), session)
        names = [n for n in session.datasets.names() if n.startswith("__")]
        # 2 pushdown materializations + 1 join materialization
        assert len(names) == 3
        for name in names:
            assert session.datasets.get(name).is_intermediate
        session.reset_intermediates()

    def test_online_stats_skipped_in_last_iteration(self):
        # Q50: first loop iteration (5 tables -> 4) collects sketches; the
        # second (4 -> 3) must register row counts only.
        bench = workbench_for_query("Q50", 10)
        optimizer = DynamicOptimizer()
        optimizer.execute(bench.query("Q50"), bench.session)
        first = bench.session.datasets.get("__join_0")
        assert first is not None
        # statistics for __join_1 live in the driver's working catalog, not
        # the session's; check the materialized datasets instead
        assert bench.session.datasets.has("__join_1")
        bench.session.reset_intermediates()
