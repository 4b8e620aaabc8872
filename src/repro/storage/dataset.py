"""Partitioned dataset storage.

A :class:`Dataset` is a hash-partitioned collection of rows living across the
simulated cluster's partitions, mirroring AsterixDB's storage of a dataset as
per-node LSM components. Base datasets have plain field names and may carry
secondary indexes; intermediate datasets (produced by Sink operators at
re-optimization points) carry *qualified* field names and never have indexes
— which is exactly why the pilot-run and cost-based baselines lose INL
opportunities in the paper's Figure 8.

Storage is the one place that knows a partition's format: every reader —
Scan/Reader, the planner-side pre-filtering passes, index builds — asks a
:class:`StoredPartition` for whole columns.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.common.errors import SchemaError
from repro.common.rng import partition_slots
from repro.common.types import Schema
from repro.storage.index import SecondaryIndex


class StoredPartition:
    """One partition of a dataset, served a column at a time.

    Backed either by the ingested row dicts (base data: a field is pivoted
    on first use and memoized here, once per dataset lifetime) or by the
    columns a Sink wrote (intermediates: nothing to pivot). Stored data is
    immutable after registration, and every column is served as a tuple:
    all scans of the dataset share it, so it is immutable by type, and the
    cycle collector stops tracking a tuple of atoms on its first visit
    (DESIGN.md §10.3).
    """

    __slots__ = ("_rows", "_columns", "length")

    def __init__(
        self, rows: list[dict] | None, columns: dict[str, tuple], length: int
    ) -> None:
        self._rows = rows
        self._columns = columns
        self.length = length

    @classmethod
    def of_rows(cls, rows: list[dict]) -> StoredPartition:
        return cls(rows, {}, len(rows))

    @classmethod
    def of_columns(cls, columns: Mapping[str, Sequence], length: int) -> StoredPartition:
        return cls(None, {name: tuple(col) for name, col in columns.items()}, length)

    def column(self, field_name: str) -> tuple:
        """Values of one field in row order; an absent field (or a row
        missing the key) reads as null — the columnar ``row.get``."""
        column = self._columns.get(field_name)
        if column is None:
            if self._rows is None:
                return (None,) * self.length
            column = tuple([row.get(field_name) for row in self._rows])
            self._columns[field_name] = column
        return column

    def rows(self) -> list[dict]:
        """The partition as row dicts (inspection and the reference
        evaluator): the ingested dicts themselves, or dicts synthesized from
        the stored columns in their order."""
        if self._rows is not None:
            return self._rows
        if not self._columns:
            return [{} for _ in range(self.length)]
        names = tuple(self._columns)
        return [dict(zip(names, values)) for values in zip(*self._columns.values())]


@dataclass
class Dataset:
    """Rows partitioned across the cluster.

    Parameters
    ----------
    name:
        Catalog name (base table name, or generated intermediate name).
    schema:
        Field layout; ``schema.primary_key`` names the partitioning key.
    partitions:
        One :class:`StoredPartition` per cluster partition; a list of row
        dicts (base ingest, tests) is accepted and wrapped.
    partition_key:
        The field whose hash routes a row to its partition; ``None`` means
        the dataset is round-robin / arbitrarily partitioned (intermediates
        partitioned on a join key record that key here instead).
    is_intermediate:
        True for materialized re-optimization-point results.
    """

    name: str
    schema: Schema
    partitions: list[StoredPartition]
    partition_key: str | None = None
    is_intermediate: bool = False
    indexes: dict[str, list[SecondaryIndex]] = field(default_factory=dict)
    #: Rows of the modeled full-scale dataset represented by each stored row
    #: (DESIGN.md §2). The cost clock and broadcast/INL size checks operate
    #: on modeled volumes (row_count * scale); join processing and
    #: statistics operate on the stored rows.
    scale: float = 1.0

    def __post_init__(self) -> None:
        self.partitions = [
            p if isinstance(p, StoredPartition) else StoredPartition.of_rows(p)
            for p in self.partitions
        ]

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    @property
    def row_count(self) -> int:
        return sum(p.length for p in self.partitions)

    @property
    def byte_size(self) -> float:
        return self.row_count * self.schema.row_width

    @property
    def modeled_rows(self) -> float:
        """Row count of the modeled full-scale dataset."""
        return self.row_count * self.scale

    def column(self, field_name: str) -> list[tuple]:
        """One field's stored tuples themselves, one per partition."""
        return [partition.column(field_name) for partition in self.partitions]

    def rows(self):
        """Iterate all rows across partitions (test/inspection helper)."""
        for partition in self.partitions:
            yield from partition.rows()

    # -- secondary indexes --------------------------------------------------

    def create_index(self, field_name: str) -> None:
        """Build a per-partition secondary index on ``field_name``.

        Only base datasets may be indexed (the INL precondition: the probe
        side "must be a base dataset with an index on the join key(s)").
        """
        if self.is_intermediate:
            raise SchemaError(
                f"cannot index intermediate dataset {self.name!r}: "
                "materialized results have no secondary indexes"
            )
        if not self.schema.has_field(field_name):
            raise SchemaError(f"{self.name!r} has no field {field_name!r}")
        self.indexes[field_name] = [
            SecondaryIndex.build(partition.column(field_name), field_name)
            for partition in self.partitions
        ]

    def has_index(self, field_name: str) -> bool:
        return field_name in self.indexes

    def index_for(self, field_name: str, partition: int) -> SecondaryIndex:
        return self.indexes[field_name][partition]


def partition_rows(
    rows: Sequence[dict], partition_count: int, partition_key: str | None
) -> list[list[dict]]:
    """Distribute rows across partitions.

    With a key: hash partitioning (co-location matters for join costs).
    Without: round-robin, which is what raw ingest without a primary key or a
    re-used materialized file gives you.
    """
    if partition_key is None:
        return [list(rows[i::partition_count]) for i in range(partition_count)]
    partitions: list[list[dict]] = [[] for _ in range(partition_count)]
    keys = [row.get(partition_key) for row in rows]
    for row, slot in zip(rows, partition_slots(keys, partition_count)):
        partitions[slot].append(row)
    return partitions
