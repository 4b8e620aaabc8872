"""Data-movement connectors between operators.

Two exchanges exist in the simulated Hyracks runtime, matching the paper's
join descriptions (Section 3):

- **hash exchange** — redistribute rows so equal keys land on the same
  partition; every row crosses the network once.
- **broadcast exchange** — replicate the (small) input to every partition.

Both take the batches to move (one per dataflow; every caller passes one)
and return one batch; the caller charges the cost model. Only ``GroupByOp``
performs the hash exchange on the host: a hash join is *charged* for it but
moves just the rows that matched (DESIGN.md §10.2).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine import vector
from repro.engine.data import ColumnBatch


def columnar_hash_exchange(
    batches: Sequence[ColumnBatch],
    route_keys: Sequence,
    partition_count: int,
) -> ColumnBatch:
    """Redistribute a batch by hash of the per-row route keys.

    ``route_keys`` holds one routing value per row (the full key tuple for
    group-by). A row goes to partition ``stable_hash(key) % partition_count``
    (:func:`repro.engine.vector.route_partitions`) and rows keep their
    source order within a destination: the positions are stably sorted by
    destination and every column is gathered once. Null keys are routed like
    any other value.
    """
    (batch,) = batches
    order, bounds = vector.partition_order(
        vector.route_partitions(route_keys, partition_count), partition_count
    )
    return ColumnBatch(
        {name: vector.gather(col, order) for name, col in batch.columns.items()},
        bounds,
    )


def columnar_broadcast_exchange(batches: Sequence[ColumnBatch]) -> ColumnBatch:
    """The input that every partition will receive.

    The engine keeps one shared (read-only) copy — the batch itself, already
    one run of flat columns — rather than materializing ``partition_count``
    physical copies; the cost model still charges the replication traffic.
    """
    (batch,) = batches
    return batch
