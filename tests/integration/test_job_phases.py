"""Figure 4: the original job splits into phase 1/2/3 subjobs."""

from repro.core.driver import DynamicOptimizer
from repro.bench.runner import workbench_for_query
from repro.engine.scheduler import run_solo

from tests.conftest import build_star_session, star_query


def materialized_by(optimizer, query, session) -> dict:
    """Run ``query`` blocking; return the intermediates it wrote, named
    without the query's namespace and looked up after its final job, just
    before the scheduler drops them."""
    written = {}

    def stages(namespace):
        result = yield from optimizer.stages(query, session, namespace=namespace)
        for name in session.datasets.names():
            if name.startswith(f"{namespace}__"):
                written[name.removeprefix(namespace)] = session.datasets.get(name)
        return result

    run_solo(query, stages, session)
    return written


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
        written = materialized_by(DynamicOptimizer(), star_query(), session)
        # 2 pushdown materializations + 1 join materialization
        assert len(written) == 3
        assert all(dataset.is_intermediate for dataset in written.values())
        # ...all consumed: the finished query left none behind
        assert not [n for n in session.datasets.names() if n.startswith("__")]

    def test_online_stats_skipped_in_last_iteration(self):
        # Q50: first loop iteration (5 tables -> 4) collects sketches; the
        # second (4 -> 3) must register row counts only.
        bench = workbench_for_query("Q50", 10)
        written = materialized_by(DynamicOptimizer(), bench.query("Q50"), bench.session)
        # statistics for __join_1 live in the driver's working catalog, not
        # the session's; check the materialized datasets instead
        assert "__join_0" in written and "__join_1" in written
