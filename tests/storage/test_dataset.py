"""Dataset / partitioning / index tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SchemaError
from repro.common.rng import stable_hash
from repro.common.types import DataType, Schema
from repro.storage.dataset import Dataset, partition_rows
from repro.storage.index import SecondaryIndex
from tests.conftest import mixed_sparse_rows

SCHEMA = Schema.of(
    ("id", DataType.INT), ("grp", DataType.INT), primary_key=("id",)
)


def make_dataset(n=100, partitions=8, key="id", intermediate=False, scale=1.0):
    rows = [{"id": i, "grp": i % 5} for i in range(n)]
    return Dataset(
        name="t",
        schema=SCHEMA,
        partitions=partition_rows(rows, partitions, key),
        partition_key=key,
        is_intermediate=intermediate,
        scale=scale,
    )


class TestPartitioning:
    def test_all_rows_present(self):
        dataset = make_dataset(123)
        assert dataset.row_count == 123
        assert sorted(r["id"] for r in dataset.rows()) == list(range(123))

    def test_hash_partitioning_is_by_stable_hash(self):
        dataset = make_dataset(50, partitions=4)
        for pid, partition in enumerate(dataset.partitions):
            for row in partition.rows():
                assert stable_hash(row["id"]) % 4 == pid

    def test_layout_is_per_row_stable_hash_on_any_keys(self, suite_tables):
        # The batch hash pass must leave every stored layout where the
        # per-row ``stable_hash(key) % n`` put it, row order included.
        ragged = [{"k": 1}, {"k": 1.0}, {"k": True}, {}, {"k": None}, {"k": "1"},
                  {"k": -0.0}, {"k": 0.0}, {"k": (1, "a")}, {"k": 2**130}, {"k": 1}]  # fmt: skip
        tables = [
            (rows, schema.primary_key[0])
            for _, schema, rows, _ in suite_tables
            if schema.primary_key
        ]
        assert len(tables) > 10
        for rows, key in [*tables, (ragged, "k")]:
            expected = [[] for _ in range(8)]
            for row in rows:
                expected[stable_hash(row.get(key)) % 8].append(row)
            assert partition_rows(rows, 8, key) == expected

    @settings(max_examples=80, deadline=None)
    @given(mixed_sparse_rows(), st.integers(1, 9))
    def test_layout_is_per_row_stable_hash_on_generated_rows(self, drawn, count):
        fields, _, rows = drawn
        for key in (*fields, "absent"):  # rows free to miss the key
            expected = [[] for _ in range(count)]
            for row in rows:
                expected[stable_hash(row.get(key)) % count].append(row)
            assert partition_rows(rows, count, key) == expected
            assert partition_rows(tuple(rows), count, key) == expected
        round_robin = [[] for _ in range(count)]
        for position, row in enumerate(rows):
            round_robin[position % count].append(row)
        assert partition_rows(tuple(rows), count, None) == round_robin

    def test_colocation_of_equal_keys(self):
        rows = [{"id": 7, "grp": i} for i in range(20)]
        partitions = partition_rows(rows, 8, "id")
        non_empty = [p for p in partitions if p]
        assert len(non_empty) == 1

    def test_round_robin_without_key(self):
        partitions = partition_rows([{"id": i} for i in range(8)], 4, None)
        assert [len(p) for p in partitions] == [2, 2, 2, 2]

    def test_byte_size_and_modeled_rows(self):
        dataset = make_dataset(10, scale=100.0)
        assert dataset.byte_size == 10 * SCHEMA.row_width
        assert dataset.modeled_rows == 1000.0


class TestSecondaryIndexes:
    def test_create_and_lookup(self):
        dataset = make_dataset(100, partitions=4)
        dataset.create_index("grp")
        assert dataset.has_index("grp")
        found = []
        for pid in range(4):
            index = dataset.index_for("grp", pid)
            for pos in index.lookup(3):
                found.append(dataset.partitions[pid].rows()[pos])
        assert sorted(r["id"] for r in found) == [i for i in range(100) if i % 5 == 3]

    def test_lookup_missing_key_empty(self):
        dataset = make_dataset(10, partitions=2)
        dataset.create_index("grp")
        assert dataset.index_for("grp", 0).lookup(999) == []

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            make_dataset().create_index("ghost")

    def test_intermediates_cannot_be_indexed(self):
        dataset = make_dataset(intermediate=True)
        with pytest.raises(SchemaError):
            dataset.create_index("grp")

    def test_index_skips_null_keys(self):
        index = SecondaryIndex.build([None, 1], "k")
        assert len(index) == 1
        assert index.lookup(None) == []

    def test_index_len(self):
        index = SecondaryIndex.build([1, 1, 2], "k")
        assert len(index) == 3
