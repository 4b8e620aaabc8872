"""In-flight partitioned data between operators.

Rows travel between operators as :class:`ColumnarData` — per-partition
parallel column lists under *qualified* column names (``alias.field``).
Alongside the payload it carries the column-type map (so intermediate
schemas and byte widths can be derived) and the partitioning property (so
the engine can skip re-partitioning when a join input is already
hash-partitioned on the join key — the optimization the paper's Hash Join
description calls out for key/foreign-key joins).

``ColumnarData.columns`` always holds the *full* logical column map — even
when only a subset is physically materialized — so every cost-model charge
derived from widths and counts is independent of projection pushdown
(DESIGN.md §10).

One partition type is in flight, :class:`ColumnPartition`. What a Scan or
Reader emits differs only in its ``columns``: a lazy read-only view of the
stored partition (:class:`StoredColumns`) instead of a dict of lists.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.types import DataType, Field, Schema

if TYPE_CHECKING:
    from repro.storage.dataset import Dataset, StoredPartition


class ColumnPartition:
    """One partition as parallel column sequences.

    ``columns`` maps qualified names to equal-length value sequences (lists,
    or stored tuples — never mutated in place); the set of physically
    present columns may be narrower than the data's logical column map when
    projection pushdown marked the rest dead. Reading an absent column
    yields nulls — the columnar analogue of ``row.get``.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Mapping[str, Sequence], length: int) -> None:
        self.columns = columns
        self.length = length

    def column(self, name: str) -> Sequence:
        col = self.columns.get(name)
        if col is None:
            return [None] * self.length
        return col


class StoredColumns(Mapping):
    """A scan's ``columns``: qualified name -> stored column, read lazily.

    Iterates ``names`` — the pushed-down live set, or every schema column —
    and asks the stored partition for a column only when a consumer reads
    it, so a Select above the scan touches only referenced columns.
    """

    __slots__ = ("_stored", "_prefix", "_names")

    def __init__(
        self, stored: StoredPartition, prefix: str, names: tuple[str, ...]
    ) -> None:
        self._stored = stored
        self._prefix = prefix
        self._names = names

    def __getitem__(self, name: str) -> tuple:
        if name not in self._names:
            raise KeyError(name)
        return self._stored.column(name.removeprefix(self._prefix))

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def scan_partitions(
    dataset: Dataset, prefix: str, live: tuple[str, ...] | None = None
) -> list[ColumnPartition]:
    """A stored dataset's partitions in flight, names qualified by ``prefix``
    (the scan alias plus a dot; empty for intermediates, whose stored names
    are already qualified). The one way operators and planner-side passes
    read storage. ``live`` of ``None`` keeps every schema column."""
    if live is None:
        live = tuple(prefix + name for name in dataset.schema.field_names)
    return [
        ColumnPartition(StoredColumns(stored, prefix, live), stored.length)
        for stored in dataset.partitions
    ]


@dataclass
class ColumnarData:
    """Rows spread over cluster partitions plus their physical properties."""

    partitions: list[ColumnPartition]
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
        return len(self.partitions)

    @property
    def row_count(self) -> int:
        return sum(p.length for p in self.partitions)

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
        """Every row as a dict — the result format. Key order inside each
        dict follows the physical column order."""
        rows: list[dict] = []
        for partition in self.partitions:
            names = tuple(partition.columns)
            if not names:
                rows.extend({} for _ in range(partition.length))
                continue
            rows.extend(
                dict(zip(names, values))
                for values in zip(*partition.columns.values())
            )
        return rows

    def schema(self, primary_key: tuple[str, ...] = ()) -> Schema:
        """Materialization schema for these columns (qualified names kept)."""
        return Schema(
            tuple(Field(name, dtype) for name, dtype in self.columns.items()),
            primary_key,
        )

    def project(self, names: list[str] | tuple[str, ...]) -> ColumnarData:
        keep = [n for n in names if n in self.columns]
        projected = [
            ColumnPartition({n: partition.column(n) for n in keep}, partition.length)
            for partition in self.partitions
        ]
        part_key = self.partitioned_on if self.partitioned_on in keep else None
        return ColumnarData(
            projected, {n: self.columns[n] for n in keep}, part_key, self.scale
        )
