"""Partitioned dataset storage.

A :class:`Dataset` is a hash-partitioned collection of rows living across the
simulated cluster's partitions, mirroring AsterixDB's storage of a dataset as
per-node LSM components. Base datasets have plain field names and may carry
secondary indexes; intermediate datasets (produced by Sink operators at
re-optimization points) carry *qualified* field names and never have indexes
— which is exactly why the pilot-run and cost-based baselines lose INL
opportunities in the paper's Figure 8.

A dataset is stored the way a batch travels (:class:`repro.engine.data.
ColumnBatch`): one flat column per field, partition after partition, plus
``bounds`` — partition ``p`` holds rows ``bounds[p]:bounds[p + 1]``. Storage
is the one place that knows how a column is backed: every reader —
Scan/Reader, the planner-side pre-filtering passes, index builds — asks
:meth:`Dataset.column` for a whole column.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.common.errors import SchemaError
from repro.common.rng import partition_slots
from repro.common.types import Schema, exact_atoms, field_values
from repro.storage.index import SecondaryIndex


@dataclass
class Dataset:
    """Rows partitioned across the cluster, served a column at a time.

    Parameters
    ----------
    name:
        Catalog name (base table name, or generated intermediate name).
    schema:
        Field layout; ``schema.primary_key`` names the partitioning key.
    bounds:
        Where each cluster partition starts in the flat columns, plus the
        row count at the end.
    columns:
        The stored columns, one tuple per field: what a Sink wrote
        (intermediates), or the fields of ``row_dicts`` pivoted so far.
    row_dicts:
        Base data: the ingested row dicts in partition order. A field is
        pivoted from them on first use and memoized in ``columns``, once per
        dataset lifetime. ``None`` for intermediates.
    partition_key:
        The field whose hash routes a row to its partition; ``None`` means
        the dataset is round-robin / arbitrarily partitioned (intermediates
        partitioned on a join key record that key here instead).
    is_intermediate:
        True for materialized re-optimization-point results.
    pool:
        Value pool of pivoted columns: one object per distinct exact
        ``int``/``str`` value. ``load_dataset`` passes its catalog's pool,
        so equal values across a catalog's base columns are one object; a
        dataset built without one keeps a private pool.
    """

    name: str
    schema: Schema
    bounds: list[int]
    columns: dict[str, tuple] = field(default_factory=dict)
    row_dicts: Sequence[dict] | None = None
    partition_key: str | None = None
    is_intermediate: bool = False
    indexes: dict[str, SecondaryIndex] = field(default_factory=dict)
    #: Rows of the modeled full-scale dataset represented by each stored row
    #: (DESIGN.md §2). The cost clock and broadcast/INL size checks operate
    #: on modeled volumes (row_count * scale); join processing and
    #: statistics operate on the stored rows.
    scale: float = 1.0
    pool: dict[object, object] = field(default_factory=dict, repr=False, compare=False)

    @property
    def partition_count(self) -> int:
        return len(self.bounds) - 1

    @property
    def row_count(self) -> int:
        return self.bounds[-1]

    @property
    def byte_size(self) -> float:
        return self.row_count * self.schema.row_width

    @property
    def modeled_rows(self) -> float:
        """Row count of the modeled full-scale dataset."""
        return self.row_count * self.scale

    def column(self, field_name: str) -> tuple:
        """Values of one field in row order, as the stored tuple itself: all
        scans of the dataset share it, so it is immutable by type, and the
        cycle collector stops tracking a tuple of atoms on its first visit
        (DESIGN.md §10.3). An absent field (or a row missing the key) reads
        as null — the columnar ``row.get``.

        A column of exact ``int``/``str``/``None`` values is stored through
        :attr:`pool`, so equal values are one object: a join probe's dict
        lookups then stay in cache and short-circuit on identity (DESIGN.md
        §10.3 rule 4). Any other column is stored as read."""
        column = self.columns.get(field_name)
        if column is None:
            if self.row_dicts is None:
                return (None,) * self.row_count
            values = field_values(self.row_dicts, field_name)
            if exact_atoms(values):
                column = tuple(map(self.pool.setdefault, values, values))
            else:
                column = tuple(values)
            self.columns[field_name] = column
        return column

    def rows(self) -> Iterator[dict]:
        """Every row as a dict, partition by partition (inspection and the
        reference evaluator): the ingested dicts themselves, or dicts
        synthesized from the stored columns in their order."""
        if self.row_dicts is not None:
            yield from self.row_dicts
        elif not self.columns:
            for _ in range(self.row_count):
                yield {}
        else:
            names = tuple(self.columns)
            for values in zip(*self.columns.values()):
                yield dict(zip(names, values))

    # -- secondary indexes --------------------------------------------------

    def create_index(self, field_name: str) -> None:
        """Build a secondary index on ``field_name`` over the flat column's
        positions (a position's partition is where ``bounds`` puts it).

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
        self.indexes[field_name] = SecondaryIndex.build(
            self.column(field_name), field_name
        )

    def has_index(self, field_name: str) -> bool:
        return field_name in self.indexes


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
    keys = field_values(rows, partition_key)
    for row, slot in zip(rows, partition_slots(keys, partition_count)):
        partitions[slot].append(row)
    return partitions
