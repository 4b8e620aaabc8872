"""Sink, DistributeResult and tail operator tests."""

from repro.engine.job import Job
from repro.engine.operators.scan import ScanOp
from repro.engine.operators.sink import DistributeResultOp, SinkOp
from repro.engine.operators.tail import GroupByOp, LimitOp, OrderByOp


class TestSink:
    def test_materializes_projection(self, star_session):
        sink = SinkOp(ScanOp("fact", "fact"), "inter", ("fact.f_a", "fact.f_val"))
        data, metrics = star_session.executor.execute(Job(sink))
        assert set(data.columns) == {"fact.f_a", "fact.f_val"}
        stored = star_session.datasets.get("inter")
        assert stored.is_intermediate
        assert stored.row_count == 2000
        assert stored.scale == 10_000.0
        assert metrics.materialize > 0
        assert metrics.rows_materialized == 2000

    def test_registers_rowcount_only_stats_without_columns(self, star_session):
        sink = SinkOp(ScanOp("da", "da"), "inter2", ("da.a_id",))
        star_session.executor.execute(Job(sink))
        stats = star_session.statistics.get("inter2")
        assert stats.row_count == 50
        assert stats.fields == {}

    def test_online_sketches_when_requested(self, star_session):
        sink = SinkOp(
            ScanOp("da", "da"), "inter3", ("da.a_id", "da.a_attr"), ("da.a_attr",)
        )
        _, metrics = star_session.executor.execute(Job(sink))
        stats = star_session.statistics.get("inter3")
        assert abs(stats.fields["da.a_attr"].distinct_count - 7) <= 1
        assert metrics.stats > 0

    def test_statistics_catalog_override(self, star_session):
        private = star_session.statistics.copy()
        sink = SinkOp(ScanOp("da", "da"), "inter4", ("da.a_id",))
        star_session.executor.execute(Job(sink), statistics=private)
        assert private.has("inter4")
        assert not star_session.statistics.has("inter4")


class TestDistributeResult:
    def test_charges_output(self, star_session):
        op = DistributeResultOp(ScanOp("da", "da"))
        data, metrics = star_session.executor.execute(Job(op))
        assert metrics.output > 0
        assert metrics.rows_out == 50
        assert data.row_count == 50


class TestGroupBy:
    def test_counts_per_group(self, star_session):
        op = GroupByOp(ScanOp("da", "da"), ("da.a_attr",))
        data, _ = star_session.executor.execute(Job(op))
        counts = {row["da.a_attr"]: row["count"] for row in data.all_rows()}
        expected = {}
        for i in range(50):
            expected[i % 7] = expected.get(i % 7, 0) + 1
        assert counts == expected

    def test_groups_globally_despite_partitioning(self, star_session):
        # values of a_attr are spread across partitions; each group must
        # appear exactly once in the output
        op = GroupByOp(ScanOp("da", "da"), ("da.a_attr",))
        data, _ = star_session.executor.execute(Job(op))
        values = [row["da.a_attr"] for row in data.all_rows()]
        assert len(values) == len(set(values))


class TestOrderBy:
    def test_global_order(self, star_session):
        op = OrderByOp(ScanOp("da", "da"), ("da.a_attr", "da.a_id"))
        data, _ = star_session.executor.execute(Job(op))
        rows = data.all_rows()
        keys = [(r["da.a_attr"], r["da.a_id"]) for r in rows]
        assert keys == sorted(keys)

    def test_mixed_types_do_not_crash(self, star_session):
        op = OrderByOp(ScanOp("da", "da"), ("da.ghost",))
        data, _ = star_session.executor.execute(Job(op))
        assert data.row_count == 50


class TestLimit:
    def test_truncates(self, star_session):
        op = LimitOp(ScanOp("da", "da"), 7)
        data, _ = star_session.executor.execute(Job(op))
        assert data.row_count == 7

    def test_limit_zero(self, star_session):
        op = LimitOp(ScanOp("da", "da"), 0)
        data, _ = star_session.executor.execute(Job(op))
        assert data.row_count == 0

    def test_limit_beyond_rows(self, star_session):
        op = LimitOp(ScanOp("da", "da"), 1000)
        data, _ = star_session.executor.execute(Job(op))
        assert data.row_count == 50
