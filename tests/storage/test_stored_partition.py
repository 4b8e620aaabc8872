"""Property tests: a stored dataset serves the same columns however it is backed.

A dataset is stored the way a batch travels — one flat column per field,
partition after partition, plus ``bounds`` — and storage is the one place
that knows how a column is backed (DESIGN.md §10.1): by the ingested row
dicts, pivoted and memoized a field at a time, or by the column tuples a
Sink wrote. For generated schemas and rows — sparse rows, ``None``s, mixed
int/float/str/bool values, empty partitions, zero-column and
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
from repro.storage.dataset import Dataset, partition_rows
from repro.storage.ingest import register_intermediate

from tests.conftest import mixed_sparse_rows, same_state, small_cluster
from tests.engine.datasets import dataset_of, partition_rows_of


def _present(rows: list[dict], prefix: str = "") -> list[list]:
    """Rows modulo absent keys: a missing key and a stored null read alike."""
    return [
        sorted(
            ((prefix + key, value) for key, value in row.items() if value is not None),
            key=lambda item: item[0],
        )
        for row in rows
    ]


def _schema(fields: tuple[str, ...], prefix: str = "") -> Schema:
    return Schema.of(*((prefix + name, DataType.INT) for name in fields))


class TestBackings:
    @given(mixed_sparse_rows())
    @settings(deadline=None)
    def test_rows_and_columns_serve_equal_columns_and_rows(self, case):
        fields, stored, rows = case
        by_rows = dataset_of("r", _schema(fields), partition_rows(rows, 4, None))
        flat = list(by_rows.rows())
        by_columns = Dataset(
            "c",
            _schema(fields),
            by_rows.bounds,
            columns={name: tuple(row.get(name) for row in flat) for name in stored},
        )
        assert by_rows.row_count == by_columns.row_count == len(rows)
        for name in (*fields, "absent"):
            left, right = by_rows.column(name), by_columns.column(name)
            assert type(left) is type(right) is tuple
            assert len(left) == len(rows) and same_state(left, right)
            if name not in stored:
                assert left == (None,) * len(rows)
            assert by_rows.column(name) is left  # pivoted once, then memoized
        assert all(a is b for a, b in zip(by_rows.rows(), flat, strict=True))
        assert same_state(_present(flat), _present(list(by_columns.rows())))

    def test_an_intermediate_keeps_the_tuples_it_is_given(self):
        datasets = DatasetCatalog()
        column = (1, 2, 3)
        schema = Schema.of(("t.a", DataType.INT), ("t.b", DataType.INT))
        dataset = register_intermediate(
            "i", schema, {"t.a": column}, [0, 2, 2, 3], None, datasets
        )
        assert datasets.get("i") is dataset and dataset.is_intermediate
        assert dataset.column("t.a") is column
        assert dataset.column("t.b") == (None, None, None)  # narrower than schema
        assert dataset.row_count == 3 and dataset.partition_count == 3
        assert partition_rows_of(dataset) == [[{"t.a": 1}, {"t.a": 2}], [], [{"t.a": 3}]]
        empty = register_intermediate("e", schema, {}, [0, 1, 2], None, datasets)
        assert list(empty.rows()) == [{}, {}]


class TestSinkReaderRoundTrip:
    @given(mixed_sparse_rows())
    @settings(deadline=None)
    def test_sink_reader_sink_keeps_every_column_bit_equal(self, case):
        fields, _, rows = case
        cluster = small_cluster()
        datasets = DatasetCatalog()
        base = dataset_of(
            "t", _schema(fields), partition_rows(rows, cluster.partitions, None)
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
        assert base.bounds == first.bounds == second.bounds
        for name in fields:
            written = first.column(f"t.{name}")
            assert type(written) is tuple
            assert same_state(written, base.column(name))
            # the Reader hands the stored tuple over and the Sink keeps it
            assert second.column(f"t.{name}") is written
        for source, twice in zip(
            partition_rows_of(base), partition_rows_of(second), strict=True
        ):
            assert same_state(_present(source, "t."), _present(twice))
