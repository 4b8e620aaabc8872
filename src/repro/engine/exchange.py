"""Data-movement connectors between operators.

Two exchanges exist in the simulated Hyracks runtime, matching the paper's
join descriptions (Section 3):

- **hash exchange** — redistribute rows so equal keys land on the same
  partition; every row crosses the network once.
- **broadcast exchange** — replicate the (small) input to every partition.

Both return new column partitions; the caller charges the cost model. Only
``GroupByOp`` performs the hash exchange on the host: a hash join is *charged*
for it but moves just the rows that matched (DESIGN.md §10.2).
"""

from __future__ import annotations

from repro.engine import vector
from repro.engine.data import ColumnPartition


def _physical_names(partitions: list[ColumnPartition]) -> tuple[str, ...]:
    """Column names of the first partition that has any."""
    return next((tuple(p.columns) for p in partitions if p.columns), ())


def columnar_hash_exchange(
    partitions: list[ColumnPartition],
    route_keys: list[list],
    partition_count: int,
) -> list[ColumnPartition]:
    """Redistribute columnar partitions by hash of the per-row route keys.

    ``route_keys[p]`` holds one routing value per row of partition ``p`` (the
    full key tuple for group-by). A row goes to partition ``stable_hash(key) %
    partition_count`` (:func:`repro.engine.vector.route_partitions`) and rows
    keep their source order within a destination. Null keys are routed like
    any other value.
    """
    names = _physical_names(partitions)
    out_columns: list[dict[str, list]] = [
        {name: [] for name in names} for _ in range(partition_count)
    ]
    out_lengths = [0] * partition_count
    for partition, keys in zip(partitions, route_keys, strict=True):
        routes = vector.route_partitions(keys, partition_count)
        buckets: list[list[int]] = [[] for _ in range(partition_count)]
        for position, slot in enumerate(routes):
            buckets[slot].append(position)
        for slot, positions in enumerate(buckets):
            if not positions:
                continue
            out_lengths[slot] += len(positions)
            dest = out_columns[slot]
            for name in names:
                column = partition.column(name)
                dest[name].extend([column[i] for i in positions])
    return [
        ColumnPartition(cols, length)
        for cols, length in zip(out_columns, out_lengths)
    ]


def columnar_broadcast_exchange(partitions: list[ColumnPartition]) -> ColumnPartition:
    """Gather the input into one partition that every partition will receive.

    The engine keeps one shared (read-only) copy rather than materializing
    ``partition_count`` physical copies; the cost model still charges the
    replication traffic.
    """
    return concat_partitions(partitions)


def concat_partitions(partitions: list[ColumnPartition]) -> ColumnPartition:
    """All rows as one partition, in source order (partition ascending,
    position ascending); an absent physical column reads as nulls."""
    names = _physical_names(partitions)
    gathered: dict[str, list] = {name: [] for name in names}
    for partition in partitions:
        for name in names:
            gathered[name].extend(partition.column(name))
    return ColumnPartition(gathered, sum(p.length for p in partitions))
