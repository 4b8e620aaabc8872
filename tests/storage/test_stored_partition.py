"""Property tests: a stored partition serves the same columns however it is backed.

Storage is the one place that knows a partition's format (DESIGN.md §10.1):
ingested row dicts, pivoted and memoized a field at a time, or the column
tuples a Sink wrote. For generated schemas and rows — sparse rows, ``None``s,
mixed int/float/str/bool values, empty partitions, zero-column and
physically-narrower-than-schema column sets — both backings must answer
alike, and an intermediate must survive Sink -> Reader -> Sink bit for bit.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.cluster.cost import CostModel
from repro.common.types import DataType, Schema
from repro.engine.metrics import JobMetrics
from repro.engine.operators.base import ExecState
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.sink import SinkOp
from repro.lang.ast import EvaluationContext
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog
from repro.storage.dataset import Dataset, StoredPartition, partition_rows

from tests.conftest import mixed_sparse_rows, same_state, small_cluster


def _present(rows: list[dict], prefix: str = "") -> list[list]:
    """Rows modulo absent keys: a missing key and a stored null read alike."""
    return [
        sorted(
            ((prefix + key, value) for key, value in row.items() if value is not None),
            key=lambda item: item[0],
        )
        for row in rows
    ]


class TestBackings:
    @given(mixed_sparse_rows())
    @settings(deadline=None)
    def test_rows_and_columns_serve_equal_columns_and_rows(self, case):
        fields, stored, rows = case
        by_rows = StoredPartition.of_rows(rows)
        by_columns = StoredPartition.of_columns(
            {name: [row.get(name) for row in rows] for name in stored}, len(rows)
        )
        assert by_rows.length == by_columns.length == len(rows)
        for name in (*fields, "absent"):
            left, right = by_rows.column(name), by_columns.column(name)
            assert type(left) is type(right) is tuple
            assert len(left) == len(rows) and same_state(left, right)
            if name not in stored:
                assert left == (None,) * len(rows)
            assert by_rows.column(name) is left  # pivoted once, then memoized
        assert by_rows.rows() is rows
        assert same_state(_present(by_rows.rows()), _present(by_columns.rows()))

    def test_a_dataset_wraps_row_lists_and_keeps_stored_partitions(self):
        stored = StoredPartition.of_columns({"t.a": [1, 2]}, 2)
        schema = Schema.of(("t.a", DataType.INT))
        dataset = Dataset("i", schema, [stored, [{"t.a": 3}]], is_intermediate=True)
        assert dataset.partitions[0] is stored
        assert dataset.partitions[1].column("t.a") == (3,)
        assert dataset.row_count == 3
        assert list(dataset.rows()) == [{"t.a": 1}, {"t.a": 2}, {"t.a": 3}]


class TestSinkReaderRoundTrip:
    @given(mixed_sparse_rows())
    @settings(deadline=None)
    def test_sink_reader_sink_keeps_every_column_bit_equal(self, case):
        fields, _, rows = case
        cluster = small_cluster()
        datasets = DatasetCatalog()
        base = Dataset(
            "t",
            Schema.of(*((name, DataType.INT) for name in fields)),
            partition_rows(rows, cluster.partitions, None),
        )
        datasets.register(base)
        state = ExecState(
            cluster=cluster,
            cost=CostModel(cluster),
            datasets=datasets,
            statistics=StatisticsCatalog(),
            evaluation=EvaluationContext(),
            metrics=JobMetrics(),
        )
        keep = tuple(f"t.{name}" for name in fields)
        SinkOp(ScanOp("t", "t"), "first", keep).execute(state)
        SinkOp(ReaderOp("first"), "second", keep).execute(state)
        first, second = datasets.get("first"), datasets.get("second")
        assert first.row_count == second.row_count == len(rows)
        for source, once, twice in zip(
            base.partitions, first.partitions, second.partitions, strict=True
        ):
            assert source.length == once.length == twice.length
            for name in fields:
                written = once.column(f"t.{name}")
                assert type(written) is tuple
                assert same_state(written, source.column(name))
                assert same_state(written, twice.column(f"t.{name}"))
            assert same_state(_present(source.rows(), "t."), _present(twice.rows()))
