"""Scan / Reader / Select / Assign / Project operator tests."""

import gc

import pytest

from repro.cluster.config import ClusterConfig
from repro.common.errors import ExecutionError
from repro.common.types import DataType, Schema
from repro.engine.job import Job
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.select import AssignOp, ProjectOp, SelectOp
from repro.engine.operators.sink import SinkOp
from repro.lang.ast import ComparisonPredicate, UdfPredicate
from repro.session import Session


def run_op(session, op):
    data, metrics = session.executor.execute(Job(op, label="test"))
    return data, metrics


class TestScan:
    def test_qualifies_columns_with_alias(self, star_session):
        data, metrics = run_op(star_session, ScanOp("da", "d1"))
        assert set(data.columns) == {"d1.a_id", "d1.a_attr"}
        assert data.row_count == 50
        assert metrics.scan > 0
        assert metrics.tuples_scanned == 50

    def test_partitioned_on_primary_key(self, star_session):
        data, _ = run_op(star_session, ScanOp("fact", "fact"))
        assert data.partitioned_on == "fact.f_id"
        assert data.scale == 10_000.0

    def test_memoised_column_is_an_untracked_tuple(self, star_session):
        """A stored column is shared by every scan of the dataset, so it is
        immutable by type — and a tuple of atoms leaves the cycle
        collector's working set on its first visit (DESIGN.md §10.3), which
        a list of the same values never does. A scan's flat column is the
        dataset's rows in partition order."""
        first, _ = run_op(star_session, ScanOp("fact", "f", live=("f.f_val",)))
        again, _ = run_op(star_session, ScanOp("fact", "g", live=("g.f_val",)))
        stored = star_session.datasets.get("fact")
        column = stored.column("f_val")
        assert type(column) is tuple and len(column) > 0
        assert stored.column("f_val") is column  # one memo
        assert list(column) == [row["f_val"] for row in stored.rows()]
        assert first.batch.columns["f.f_val"] is column
        assert again.batch.columns["g.f_val"] is column
        # an intermediate is stored the same way: the Sink turns the lists
        # its input holds into the tuples the next Reader serves
        select = SelectOp(
            ScanOp("fact", "f"), (ComparisonPredicate("f.f_val", ">=", 0),)
        )
        run_op(star_session, SinkOp(select, "inter", ("f.f_val",)))
        inter = star_session.datasets.get("inter")
        assert inter.bounds == stored.bounds
        written = inter.column("f.f_val")
        assert type(written) is tuple and written == column
        gc.collect()
        assert not gc.is_tracked(column) and not gc.is_tracked(written)
        assert gc.is_tracked(list(column))

    def test_scan_and_reader_hand_over_the_stored_tuple(self):
        """Storage keeps the batch's shape, so neither a Scan of a
        40-partition base dataset nor a Reader of a 40-partition
        intermediate copies a column: each hands over the stored tuple."""
        session = Session(ClusterConfig(nodes=10, cores_per_node=4))
        rows = [{"a": i, "b": i % 7} for i in range(500)]
        session.load("t", Schema.of(("a", DataType.INT), ("b", DataType.INT)), rows)
        base = session.datasets.get("t")
        assert base.partition_count == 40
        scanned, _ = run_op(session, ScanOp("t", "t"))
        assert scanned.batch.bounds == base.bounds
        for name in ("a", "b"):
            assert scanned.batch.columns[f"t.{name}"] is base.column(name)
        run_op(session, SinkOp(ScanOp("t", "t"), "inter", ("t.a", "t.b")))
        inter = session.datasets.get("inter")
        assert inter.partition_count == 40 and inter.bounds == base.bounds
        read, _ = run_op(session, ReaderOp("inter"))
        for name in ("t.a", "t.b"):
            stored = inter.column(name)
            assert read.batch.columns[name] is stored
            # a Sink over a scan stores the scan's tuple itself
            assert stored is base.column(name.removeprefix("t."))
        gc.collect()
        assert not gc.is_tracked(base.column("a"))
        assert not gc.is_tracked(inter.column("t.b"))

    def test_scan_rejects_intermediates(self, star_session):
        sink = SinkOp(ScanOp("da", "da"), "inter", ("da.a_id",))
        run_op(star_session, sink)
        with pytest.raises(ExecutionError):
            run_op(star_session, ScanOp("inter", "inter"))


class TestReader:
    def test_reads_back_materialized(self, star_session):
        sink = SinkOp(ScanOp("da", "da"), "inter", ("da.a_id", "da.a_attr"))
        run_op(star_session, sink)
        data, metrics = run_op(star_session, ReaderOp("inter"))
        assert data.row_count == 50
        assert set(data.columns) == {"da.a_id", "da.a_attr"}
        assert metrics.materialize > 0

    def test_reader_rejects_base_tables(self, star_session):
        with pytest.raises(ExecutionError):
            run_op(star_session, ReaderOp("da"))


class TestSelect:
    def test_filters_rows(self, star_session):
        op = SelectOp(ScanOp("da", "da"), (ComparisonPredicate("da.a_attr", "=", 2),))
        data, metrics = run_op(star_session, op)
        assert all(row["da.a_attr"] == 2 for row in data.all_rows())
        assert data.row_count == len([i for i in range(50) if i % 7 == 2])
        assert metrics.compute > 0

    def test_udf_predicate(self, star_session):
        op = SelectOp(
            ScanOp("da", "da"), (UdfPredicate("da.a_id", "mymod10", "=", 3),)
        )
        data, _ = run_op(star_session, op)
        assert sorted(r["da.a_id"] for r in data.all_rows()) == [3, 13, 23, 33, 43]

    def test_conjunction(self, star_session):
        op = SelectOp(
            ScanOp("da", "da"),
            (
                ComparisonPredicate("da.a_id", ">=", 10),
                ComparisonPredicate("da.a_id", "<", 20),
            ),
        )
        data, _ = run_op(star_session, op)
        assert data.row_count == 10


class TestAssign:
    def test_computes_column(self, star_session):
        op = AssignOp(ScanOp("da", "da"), "t", "mymod10", "da.a_id")
        data, _ = run_op(star_session, op)
        assert all(row["t"] == row["da.a_id"] % 10 for row in data.all_rows())
        assert "t" in data.columns


class TestProject:
    def test_keeps_only_named(self, star_session):
        op = ProjectOp(ScanOp("da", "da"), ("da.a_id",))
        data, _ = run_op(star_session, op)
        assert set(data.columns) == {"da.a_id"}
        assert all(set(row) == {"da.a_id"} for row in data.all_rows())

    def test_missing_columns_ignored(self, star_session):
        op = ProjectOp(ScanOp("da", "da"), ("da.a_id", "ghost.col"))
        data, _ = run_op(star_session, op)
        assert set(data.columns) == {"da.a_id"}

    def test_narrower_width(self, star_session):
        scan, _ = run_op(star_session, ScanOp("da", "da"))
        projected, _ = run_op(
            star_session, ProjectOp(ScanOp("da", "da"), ("da.a_id",))
        )
        assert projected.row_width < scan.row_width

    def test_render_tree(self, star_session):
        op = ProjectOp(ScanOp("da", "da"), ("da.a_id",))
        text = op.render()
        assert "Project" in text and "Scan" in text
