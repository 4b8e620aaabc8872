"""In-flight partitioned data between operators.

Rows travel between operators as :class:`ColumnarData` — one batch of flat
columns under *qualified* column names (``alias.field``), partition after
partition, plus the offsets where each cluster partition starts
(:class:`ColumnBatch`). Alongside the payload it carries the column-type
map (so intermediate schemas and byte widths can be derived) and the
partitioning property (so the engine can skip re-partitioning when a join
input is already hash-partitioned on the join key — the optimization the
paper's Hash Join description calls out for key/foreign-key joins).

The modeled cluster keeps its partitions: ``bounds`` says which rows each
one holds and every charge is priced per modeled partition. The host runs
each kernel once per operator over the whole batch (DESIGN.md §10.1), and
storage keeps the same shape: a Scan or Reader hands over the stored column
tuples and the dataset's bounds as they are, and a Sink stores the batch's
columns and bounds.

``ColumnarData.columns`` always holds the *full* logical column map — even
when only a subset is physically materialized — so every cost-model charge
derived from widths and counts is independent of projection pushdown
(DESIGN.md §10).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.types import DataType, Field, Schema

if TYPE_CHECKING:
    from repro.storage.dataset import Dataset


class ColumnBatch:
    """A dataflow's rows as parallel flat columns in partition-major order.

    ``columns`` maps qualified names to equal-length value sequences (lists,
    or stored tuples — never mutated in place); the set of physically
    present columns may be narrower than the data's logical column map when
    projection pushdown marked the rest dead. Reading an absent column
    yields nulls — the columnar analogue of ``row.get``. Partition ``p``
    holds rows ``bounds[p]:bounds[p + 1]``; ``bounds[-1]`` is the length.
    """

    __slots__ = ("columns", "bounds")

    def __init__(self, columns: Mapping[str, Sequence], bounds: list[int]) -> None:
        self.columns = columns
        self.bounds = bounds

    @property
    def length(self) -> int:
        return self.bounds[-1]

    def column(self, name: str) -> Sequence:
        col = self.columns.get(name)
        if col is None:
            return [None] * self.bounds[-1]
        return col


class StoredColumns(Mapping):
    """A scan's ``columns``: qualified name -> the stored column tuple.

    A read-only view that renames: it iterates ``names`` — the pushed-down
    live set, or every schema column — and hands over the dataset's stored
    tuple for the field a name qualifies, read from storage only when a
    consumer asks for it, so a Select above the scan touches only
    referenced columns. Nothing is copied: the stored column already is the
    flat column, in the batch's partition order.
    """

    __slots__ = ("_dataset", "_fields")

    def __init__(self, dataset: Dataset, prefix: str, names: tuple[str, ...]) -> None:
        self._dataset = dataset
        self._fields = {name: name.removeprefix(prefix) for name in names}

    def __getitem__(self, name: str) -> tuple:
        return self._dataset.column(self._fields[name])

    def __contains__(self, name: object) -> bool:
        return name in self._fields

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)


def scan_batch(
    dataset: Dataset, prefix: str, live: tuple[str, ...] | None = None
) -> ColumnBatch:
    """A stored dataset in flight, names qualified by ``prefix`` (the scan
    alias plus a dot; empty for intermediates, whose stored names are
    already qualified): what Scan, Reader and the planner-side filter passes
    read. ``live`` of ``None`` keeps every schema column."""
    if live is None:
        live = tuple(prefix + name for name in dataset.schema.field_names)
    return ColumnBatch(StoredColumns(dataset, prefix, live), dataset.bounds)


@dataclass
class ColumnarData:
    """Rows spread over cluster partitions plus their physical properties."""

    batch: ColumnBatch
    #: the *logical* column map, regardless of which columns are physically
    #: materialized: ``row_width`` (and with it every width-derived charge)
    #: never depends on what projection pushdown marked dead.
    columns: dict[str, DataType]
    partitioned_on: str | None = None
    #: Modeled full-scale rows per stored row; the cost clock charges
    #: ``row_count * scale`` (see DESIGN.md §2). Join outputs inherit the
    #: larger input scale.
    scale: float = 1.0

    @property
    def partition_count(self) -> int:
        return len(self.batch.bounds) - 1

    @property
    def row_count(self) -> int:
        return self.batch.bounds[-1]

    @property
    def modeled_rows(self) -> float:
        """Row count of the modeled full-scale data in flight."""
        return self.row_count * self.scale

    @property
    def row_width(self) -> int:
        return sum(dtype.byte_width for dtype in self.columns.values()) + 8

    @property
    def byte_size(self) -> float:
        return self.row_count * self.row_width

    def all_rows(self) -> list[dict]:
        """Every row as a dict, partition by partition — the result format.
        Key order inside each dict follows the physical column order."""
        columns = self.batch.columns
        names = tuple(columns)
        if not names:
            return [{} for _ in range(self.row_count)]
        return [dict(zip(names, values)) for values in zip(*columns.values())]

    def schema(self) -> Schema:
        """Materialization schema for these columns (qualified names kept)."""
        return Schema(
            tuple(Field(name, dtype) for name, dtype in self.columns.items())
        )

    def project(self, names: list[str] | tuple[str, ...]) -> ColumnarData:
        keep = [n for n in names if n in self.columns]
        batch = self.batch
        projected = ColumnBatch({n: batch.column(n) for n in keep}, batch.bounds)
        part_key = self.partitioned_on if self.partitioned_on in keep else None
        return ColumnarData(
            projected, {n: self.columns[n] for n in keep}, part_key, self.scale
        )
