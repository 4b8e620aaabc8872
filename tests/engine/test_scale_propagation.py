"""Modeled-scale propagation through the engine (DESIGN.md §5b.1)."""

import pytest

from repro.common.types import DataType, Schema
from repro.engine.data import ColumnarData, ColumnPartition
from repro.engine.job import Job
from repro.engine.operators.joins import BroadcastJoinOp, HashJoinOp
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.select import ProjectOp, SelectOp
from repro.engine.operators.sink import SinkOp
from repro.lang.ast import ComparisonPredicate
from repro.session import Session

from tests.conftest import small_cluster


@pytest.fixture
def session():
    session = Session(small_cluster())
    session.load(
        "big",
        Schema.of(("id", DataType.INT), ("k", DataType.INT), primary_key=("id",)),
        [{"id": i, "k": i % 10} for i in range(100)],
        scale=1e6,
    )
    session.load(
        "small",
        Schema.of(("s_id", DataType.INT), ("v", DataType.INT), primary_key=("s_id",)),
        [{"s_id": i, "v": i} for i in range(10)],
        scale=100.0,
    )
    return session


def run(session, op):
    return session.executor.execute(Job(op))


class TestScalePropagation:
    def test_scan_carries_dataset_scale(self, session):
        data, _ = run(session, ScanOp("big", "big"))
        assert data.scale == 1e6
        assert data.modeled_rows == 100 * 1e6

    def test_select_project_preserve_scale(self, session):
        op = ProjectOp(
            SelectOp(ScanOp("big", "big"), (ComparisonPredicate("big.k", "=", 1),)),
            ("big.id",),
        )
        data, _ = run(session, op)
        assert data.scale == 1e6

    def test_join_takes_max_scale(self, session):
        op = HashJoinOp(
            ScanOp("small", "small"), ScanOp("big", "big"), ("small.s_id",), ("big.k",)
        )
        data, _ = run(session, op)
        assert data.scale == 1e6

    def test_broadcast_join_same(self, session):
        op = BroadcastJoinOp(
            ScanOp("small", "small"), ScanOp("big", "big"), ("small.s_id",), ("big.k",)
        )
        data, _ = run(session, op)
        assert data.scale == 1e6

    def test_sink_and_reader_roundtrip_scale(self, session):
        sink = SinkOp(ScanOp("big", "big"), "inter", ("big.id", "big.k"))
        run(session, sink)
        data, _ = run(session, ReaderOp("inter"))
        assert data.scale == 1e6
        assert session.statistics.get("inter").scale == 1e6

    def test_cost_scales_with_modeled_rows(self, session):
        _, big_metrics = run(session, ScanOp("big", "big"))
        _, small_metrics = run(session, ScanOp("small", "small"))
        # big has 10x the stored rows but 10^4x the scale: the simulated
        # scan cost ratio must track modeled volume, not stored volume
        assert big_metrics.scan > small_metrics.scan * 1000

    def test_partitioned_data_defaults(self):
        data = ColumnarData([ColumnPartition({"a": [1]}, 1)], {"a": DataType.INT})
        assert data.scale == 1.0
        assert data.modeled_rows == 1
