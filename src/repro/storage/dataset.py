"""Partitioned dataset storage.

A :class:`Dataset` is a hash-partitioned collection of rows (plain dicts)
living across the simulated cluster's partitions, mirroring AsterixDB's
storage of a dataset as per-node LSM components. Base datasets have plain
field names and may carry secondary indexes; intermediate datasets (produced
by Sink operators at re-optimization points) carry *qualified* field names
and never have indexes — which is exactly why the pilot-run and cost-based
baselines lose INL opportunities in the paper's Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SchemaError
from repro.common.rng import stable_hashes
from repro.common.types import Schema
from repro.storage.index import SecondaryIndex

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
        One list of row dicts per cluster partition.
    partition_key:
        The field whose hash routes a row to its partition; ``None`` means
        the dataset is round-robin / arbitrarily partitioned (intermediates
        partitioned on a join key record that key here instead).
    is_intermediate:
        True for materialized re-optimization-point results.
    """

    name: str
    schema: Schema
    partitions: list[list[dict]]
    partition_key: str | None = None
    is_intermediate: bool = False
    indexes: dict[str, list[SecondaryIndex]] = field(default_factory=dict)
    #: Rows of the modeled full-scale dataset represented by each stored row
    #: (DESIGN.md §2). The cost clock and broadcast/INL size checks operate
    #: on modeled volumes (row_count * scale); join processing and
    #: statistics operate on the stored rows.
    scale: float = 1.0
    #: Lazily built per-partition columnar projections (field -> value
    #: tuple), shared by every scan of this dataset. Stored rows are treated
    #: as immutable after registration, so a column extracted once stays
    #: valid for the dataset's lifetime; the memo is keyed by the dataset's
    #: own field names, so it holds at most one tuple per schema field.
    _column_caches: list[dict[str, tuple]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    @property
    def row_count(self) -> int:
        return sum(len(p) for p in self.partitions)

    @property
    def byte_size(self) -> float:
        return self.row_count * self.schema.row_width

    @property
    def modeled_rows(self) -> float:
        """Row count of the modeled full-scale dataset."""
        return self.row_count * self.scale

    def rows(self):
        """Iterate all rows across partitions (test/inspection helper)."""
        for partition in self.partitions:
            yield from partition

    def column_cache(self, partition_index: int) -> dict[str, tuple]:
        """The columnar projection memo for one partition."""
        if self._column_caches is None:
            self._column_caches = [{} for _ in self.partitions]
        return self._column_caches[partition_index]

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
            SecondaryIndex.build(partition, field_name) for partition in self.partitions
        ]

    def has_index(self, field_name: str) -> bool:
        return field_name in self.indexes

    def index_for(self, field_name: str, partition: int) -> SecondaryIndex:
        return self.indexes[field_name][partition]


def partition_rows(
    rows: list[dict], partition_count: int, partition_key: str | None
) -> list[list[dict]]:
    """Distribute rows across partitions.

    With a key: hash partitioning (co-location matters for join costs).
    Without: round-robin, which is what raw ingest without a primary key or a
    re-used materialized file gives you.
    """
    partitions: list[list[dict]] = [[] for _ in range(partition_count)]
    if partition_key is None:
        for i, row in enumerate(rows):
            partitions[i % partition_count].append(row)
    else:
        hashes = stable_hashes([row.get(partition_key) for row in rows])
        for row, key_hash in zip(rows, hashes):
            partitions[key_hash % partition_count].append(row)
    return partitions
