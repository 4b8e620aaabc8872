"""The retired hash/broadcast join data path, kept as the test reference.

Until PR 17 a hash join physically re-partitioned each input that was not
already partitioned on its first join key and then joined partition by
partition; the broadcast join probed every probe partition against one
gathered build copy. ``repro.engine.operators.joins`` now matches globally
over the dataflow's one batch and places only the matches (DESIGN.md
§10.2); this module is the old algorithm, row-at-a-time kernels and
per-partition data included — it cuts each input batch at its bounds and
joins the pieces — so ``test_join_placement.py`` can assert the two agree on
every partition's contents, row order and charged metrics.

It is self-contained on purpose: it routes with ``stable_hash`` directly and
shares no kernel with ``repro.engine.vector``. It is also wrong the way the
old path was wrong — equal keys of different types (``1`` and ``1.0``) hash
to different partitions and never meet — so cross-type keys are checked
against a brute-force nested loop instead.
"""

from __future__ import annotations

from repro.common.rng import stable_hash
from repro.engine.data import ColumnarData
from repro.engine.operators.base import ExecState

from tests.engine.batches import batch_of, partition_slices


class ColumnPartition:
    """One partition as parallel column lists; an absent column reads as
    nulls."""

    def __init__(self, columns: dict, length: int) -> None:
        self.columns = columns
        self.length = length

    def column(self, name: str) -> list:
        col = self.columns.get(name)
        return [None] * self.length if col is None else col


def split(data: ColumnarData) -> list[ColumnPartition]:
    """The batch cut back into its partitions."""
    return [ColumnPartition(cols, n) for cols, n in partition_slices(data.batch)]


def joined(partitions: list[ColumnPartition], columns, partitioned_on, scale):
    batch = batch_of([p.columns for p in partitions], [p.length for p in partitions])
    return ColumnarData(batch, columns, partitioned_on, scale)


def _names(partitions: list[ColumnPartition]) -> tuple[str, ...]:
    for partition in partitions:
        if partition.columns:
            return tuple(partition.columns)
    return ()


def hash_exchange(
    partitions: list[ColumnPartition], key: str, partition_count: int
) -> list[ColumnPartition]:
    """Every row to ``stable_hash(row[key]) % partition_count``, source order
    kept within a destination; nulls are routed like any value."""
    names = _names(partitions)
    out = [{name: [] for name in names} for _ in range(partition_count)]
    lengths = [0] * partition_count
    for partition in partitions:
        route_column = partition.column(key)
        for position in range(partition.length):
            slot = stable_hash(route_column[position]) % partition_count
            lengths[slot] += 1
            for name in names:
                out[slot][name].append(partition.column(name)[position])
    return [ColumnPartition(cols, n) for cols, n in zip(out, lengths)]


def gather_all(partitions: list[ColumnPartition]) -> ColumnPartition:
    names = _names(partitions)
    gathered = {name: [] for name in names}
    for partition in partitions:
        for name in names:
            gathered[name].extend(partition.column(name))
    return ColumnPartition(gathered, sum(p.length for p in partitions))


def _keys(partition: ColumnPartition, names: tuple[str, ...]) -> list:
    if len(names) == 1:
        return list(partition.column(names[0]))
    parts = [partition.column(name) for name in names]
    return [
        None if any(part is None for part in key) else key for key in zip(*parts)
    ]


def local_join(
    columns: dict,
    build_part: ColumnPartition,
    probe_part: ColumnPartition,
    build_keys: tuple[str, ...],
    probe_keys: tuple[str, ...],
) -> ColumnPartition:
    """Nested-loop order: probe rows in order, matches in build order."""
    table: dict = {}
    for position, key in enumerate(_keys(build_part, build_keys)):
        if key is not None:
            table.setdefault(key, []).append(position)
    build_idx: list[int] = []
    probe_idx: list[int] = []
    for position, key in enumerate(_keys(probe_part, probe_keys)):
        if key is not None:
            for match in table.get(key, ()):
                build_idx.append(match)
                probe_idx.append(position)
    out = {}
    for name in columns:
        if name in build_part.columns:
            out[name] = [build_part.columns[name][i] for i in build_idx]
        elif name in probe_part.columns:
            out[name] = [probe_part.columns[name][i] for i in probe_idx]
    return ColumnPartition(out, len(build_idx))


def reference_hash_join(
    build: ColumnarData,
    probe: ColumnarData,
    build_keys: tuple[str, ...],
    probe_keys: tuple[str, ...],
    state: ExecState,
) -> ColumnarData:
    partition_count = state.cluster.partitions
    build_parts = split(build)
    if build.partitioned_on != build_keys[0]:
        build_parts = hash_exchange(build_parts, build_keys[0], partition_count)
        state.charge(
            "network", state.cost.hash_exchange(build.modeled_rows, build.row_width)
        )
    probe_parts = split(probe)
    if probe.partitioned_on != probe_keys[0]:
        probe_parts = hash_exchange(probe_parts, probe_keys[0], partition_count)
        state.charge(
            "network", state.cost.hash_exchange(probe.modeled_rows, probe.row_width)
        )
    columns = dict(probe.columns)
    columns.update(build.columns)
    out_partitions = [
        local_join(columns, build_part, probe_part, build_keys, probe_keys)
        for build_part, probe_part in zip(build_parts, probe_parts, strict=True)
    ]
    out_rows = sum(p.length for p in out_partitions)
    out_scale = max(build.scale, probe.scale)
    state.charge("compute", state.cost.hash_build(build.modeled_rows))
    state.charge(
        "compute", state.cost.probe(probe.modeled_rows + out_rows * out_scale)
    )
    state.charge(
        "spill",
        state.cost.spill(
            build.modeled_rows * build.row_width,
            probe.modeled_rows * probe.row_width,
        ),
    )
    state.metrics.tuples_joined += out_rows
    return joined(out_partitions, columns, probe_keys[0], out_scale)


def reference_broadcast_join(
    build: ColumnarData,
    probe: ColumnarData,
    build_keys: tuple[str, ...],
    probe_keys: tuple[str, ...],
    state: ExecState,
) -> ColumnarData:
    gathered = gather_all(split(build))
    state.charge(
        "network", state.cost.broadcast_exchange(build.modeled_rows, build.row_width)
    )
    state.charge("compute", state.cost.broadcast_build(build.modeled_rows))
    columns = dict(probe.columns)
    columns.update(build.columns)
    out_partitions = [
        local_join(columns, gathered, partition, build_keys, probe_keys)
        for partition in split(probe)
    ]
    out_rows = sum(p.length for p in out_partitions)
    out_scale = max(build.scale, probe.scale)
    state.charge(
        "compute", state.cost.probe(probe.modeled_rows + out_rows * out_scale)
    )
    state.metrics.tuples_joined += out_rows
    return joined(out_partitions, columns, probe.partitioned_on, out_scale)
