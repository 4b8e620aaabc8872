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
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.common.types import DataType, Field, Schema


class ColumnPartition:
    """One partition as parallel column sequences.

    ``columns`` maps qualified names to equal-length value sequences (lists,
    or a scan's memoized tuples — never mutated in place); the set of
    physically present columns may be narrower than the data's logical
    column map when projection pushdown marked the rest dead. Reading an
    absent column yields nulls — the columnar analogue of ``row.get``.
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


class LazyRowPartition:
    """A scan's partition before any column has been touched.

    Holds a read-only reference to the dataset's stored row dicts plus the
    alias qualifier; columns are extracted on first use, so a fused
    select+project above the scan reads only referenced columns. ``cache``
    is the dataset's per-partition columnar memo
    (:meth:`repro.storage.dataset.Dataset.column_cache`): the row->column
    pivot for a given field happens once per dataset lifetime, and every
    later scan of the same partition reuses the extracted tuple.
    """

    __slots__ = ("rows", "prefix", "live", "cache")

    def __init__(
        self,
        rows: list[dict],
        prefix: str,
        live: tuple[str, ...] | None,
        cache: dict[str, tuple] | None = None,
    ) -> None:
        self.rows = rows
        self.prefix = prefix
        self.live = live
        self.cache = cache

    @property
    def length(self) -> int:
        return len(self.rows)

    def storage_column(self, key: str) -> tuple:
        """Values of one *storage-named* (unqualified) field, memoized.

        A tuple: the memo is shared by every scan of the dataset, so it is
        immutable by type, and the cycle collector stops tracking a tuple of
        atoms on its first visit (DESIGN.md §10.3).
        """
        cache = self.cache
        column = cache.get(key) if cache is not None else None
        if column is None:
            column = tuple([row.get(key) for row in self.rows])
            if cache is not None:
                cache[key] = column
        return column

    def extract(self, names) -> ColumnPartition:
        """Materialize the qualified ``names`` from the stored rows."""
        plen = len(self.prefix)
        columns = {}
        for name in names:
            key = name[plen:] if plen else name
            columns[name] = self.storage_column(key)
        return ColumnPartition(columns, len(self.rows))


def materialize(
    partition: ColumnPartition | LazyRowPartition, columns: dict[str, DataType]
) -> ColumnPartition:
    """Normalize a partition to extracted column lists.

    Lazy scan partitions extract their live set (all logical columns when no
    pushdown information was attached); extracted partitions pass through.
    """
    if isinstance(partition, ColumnPartition):
        return partition
    live = partition.live if partition.live is not None else tuple(columns)
    return partition.extract(live)


@dataclass
class ColumnarData:
    """Rows spread over cluster partitions plus their physical properties."""

    partitions: Sequence[ColumnPartition | LazyRowPartition]
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

    def materialized(self) -> list[ColumnPartition]:
        return [materialize(p, self.columns) for p in self.partitions]

    def to_row_partitions(self) -> list[list[dict]]:
        """Convert back to per-partition row dicts (sink materialization).

        Key order inside each dict follows the physical column order.
        """
        out = []
        for partition in self.materialized():
            names = tuple(partition.columns)
            cols = [partition.columns[n] for n in names]
            if not names:
                out.append([{} for _ in range(partition.length)])
                continue
            out.append([dict(zip(names, values)) for values in zip(*cols)])
        return out

    def all_rows(self) -> list[dict]:
        rows: list[dict] = []
        for partition in self.to_row_partitions():
            rows.extend(partition)
        return rows

    def schema(self, primary_key: tuple[str, ...] = ()) -> Schema:
        """Materialization schema for these columns (qualified names kept)."""
        return Schema(
            tuple(Field(name, dtype) for name, dtype in self.columns.items()),
            primary_key,
        )

    def project(self, names: list[str] | tuple[str, ...]) -> ColumnarData:
        keep = [n for n in names if n in self.columns]
        projected: list[ColumnPartition | LazyRowPartition] = []
        for partition in self.partitions:
            if isinstance(partition, LazyRowPartition):
                # stay lazy: narrow the live set, defer extraction
                projected.append(
                    LazyRowPartition(
                        partition.rows,
                        partition.prefix,
                        tuple(keep),
                        partition.cache,
                    )
                )
            else:
                cols = {
                    n: partition.column(n) for n in keep
                }
                projected.append(ColumnPartition(cols, partition.length))
        part_key = self.partitioned_on if self.partitioned_on in keep else None
        return ColumnarData(
            projected, {n: self.columns[n] for n in keep}, part_key, self.scale
        )
