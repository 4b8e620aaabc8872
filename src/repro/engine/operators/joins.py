"""Join operators: hash, broadcast, and indexed nested loop.

These implement the three algorithms described in Section 3 of the paper:

- **Hash join** — both inputs re-partitioned on the join key(s) unless one is
  already usefully partitioned (key/foreign-key joins on a dataset's primary
  key skip the exchange and "communication is saved"); then a per-partition
  dynamic hash join.
- **Broadcast join** — the (ideally small) build input is replicated to all
  partitions of the probe input; every partition builds a hash table over the
  full build side and probes its local probe portion, so the big side never
  moves.
- **Indexed nested loop join** — the build input is broadcast to all
  partitions of a *base dataset* with a secondary index on the join key;
  arriving rows immediately probe the local index.
"""

from __future__ import annotations

import enum

from repro.common.errors import ExecutionError
from repro.engine import vector
from repro.engine.data import ColumnarData, ColumnPartition
from repro.engine.exchange import columnar_broadcast_exchange, columnar_hash_exchange
from repro.engine.operators.base import ExecState, PhysicalOperator


class JoinAlgorithm(enum.Enum):
    HASH = "hash"
    BROADCAST = "broadcast"
    INDEX_NESTED_LOOP = "inl"

    @property
    def plan_marker(self) -> str:
        """Appendix notation: plain ⋈ for hash, 'b' broadcast, 'i' INL."""
        if self is JoinAlgorithm.BROADCAST:
            return "b"
        if self is JoinAlgorithm.INDEX_NESTED_LOOP:
            return "i"
        return ""


def _merged_columns(probe_columns: dict, build_columns: dict) -> dict:
    """Join-output logical column map: probe's columns, build overwriting
    overlaps (dict-update semantics)."""
    columns = dict(probe_columns)
    columns.update(build_columns)
    return columns


def _gather_join_output(
    columns: dict,
    build_part: ColumnPartition,
    probe_part: ColumnPartition,
    build_idx: list[int],
    probe_idx: list[int],
) -> ColumnPartition:
    """Materialize one join output partition from matched position pairs.

    Physical columns follow the logical map's order; names present on both
    sides are sourced from the build side.
    """
    build_names = build_part.columns.keys()
    probe_names = probe_part.columns.keys()
    out: dict[str, list] = {}
    for name in columns:
        if name in build_names:
            out[name] = vector.gather(build_part.columns[name], build_idx)
        elif name in probe_names:
            out[name] = vector.gather(probe_part.columns[name], probe_idx)
    return ColumnPartition(out, len(build_idx))


class HashJoinOp(PhysicalOperator):
    """Partitioned dynamic hash join.

    ``build_keys[i]`` joins against ``probe_keys[i]``; rows are routed by the
    first key column and residual conjuncts are checked by tuple equality.
    """

    algorithm = JoinAlgorithm.HASH

    def __init__(
        self,
        build: PhysicalOperator,
        probe: PhysicalOperator,
        build_keys: tuple[str, ...],
        probe_keys: tuple[str, ...],
    ) -> None:
        if len(build_keys) != len(probe_keys) or not build_keys:
            raise ExecutionError("join needs matching, non-empty key lists")
        self.children = (build, probe)
        self.build_keys = tuple(build_keys)
        self.probe_keys = tuple(probe_keys)

    def execute(self, state: ExecState) -> ColumnarData:
        build = self.children[0].run(state)
        probe = self.children[1].run(state)
        partition_count = state.cluster.partitions

        build_parts = build.materialized()
        if build.partitioned_on != self.build_keys[0]:
            build_parts = columnar_hash_exchange(
                build_parts,
                [p.column(self.build_keys[0]) for p in build_parts],
                partition_count,
            )
            state.charge(
                "network", state.cost.hash_exchange(build.modeled_rows, build.row_width)
            )
        probe_parts = probe.materialized()
        if probe.partitioned_on != self.probe_keys[0]:
            probe_parts = columnar_hash_exchange(
                probe_parts,
                [p.column(self.probe_keys[0]) for p in probe_parts],
                partition_count,
            )
            state.charge(
                "network", state.cost.hash_exchange(probe.modeled_rows, probe.row_width)
            )

        columns = _merged_columns(probe.columns, build.columns)
        out_partitions: list[ColumnPartition] = []
        out_rows = 0
        for build_part, probe_part in zip(build_parts, probe_parts, strict=True):
            table = vector.build_hash_table(
                vector.join_key_column(
                    build_part.columns, build_part.length, self.build_keys
                )
            )
            build_idx, probe_idx = vector.probe_hash_table(
                table,
                vector.join_key_column(
                    probe_part.columns, probe_part.length, self.probe_keys
                ),
            )
            out_rows += len(build_idx)
            out_partitions.append(
                _gather_join_output(
                    columns, build_part, probe_part, build_idx, probe_idx
                )
            )

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
        return ColumnarData(out_partitions, columns, self.probe_keys[0], out_scale)

    def label(self) -> str:
        pairs = ", ".join(
            f"{b} = {p}" for b, p in zip(self.build_keys, self.probe_keys, strict=True)
        )
        return f"HashJoin [{pairs}]"


class BroadcastJoinOp(PhysicalOperator):
    """Broadcast the build input to every partition of the probe input."""

    algorithm = JoinAlgorithm.BROADCAST

    def __init__(
        self,
        build: PhysicalOperator,
        probe: PhysicalOperator,
        build_keys: tuple[str, ...],
        probe_keys: tuple[str, ...],
    ) -> None:
        if len(build_keys) != len(probe_keys) or not build_keys:
            raise ExecutionError("join needs matching, non-empty key lists")
        self.children = (build, probe)
        self.build_keys = tuple(build_keys)
        self.probe_keys = tuple(probe_keys)

    def execute(self, state: ExecState) -> ColumnarData:
        build = self.children[0].run(state)
        probe = self.children[1].run(state)

        gathered = columnar_broadcast_exchange(build.materialized())
        state.charge(
            "network",
            state.cost.broadcast_exchange(build.modeled_rows, build.row_width),
        )
        # One shared hash table stands in for the identical per-partition
        # copies; the cost model charged the replicated build above.
        state.charge("compute", state.cost.broadcast_build(build.modeled_rows))
        table = vector.build_hash_table(
            vector.join_key_column(
                gathered.columns, gathered.length, self.build_keys
            )
        )

        columns = _merged_columns(probe.columns, build.columns)
        out_partitions: list[ColumnPartition] = []
        out_rows = 0
        for partition in probe.materialized():
            build_idx, probe_idx = vector.probe_hash_table(
                table,
                vector.join_key_column(
                    partition.columns, partition.length, self.probe_keys
                ),
            )
            out_rows += len(build_idx)
            out_partitions.append(
                _gather_join_output(
                    columns, gathered, partition, build_idx, probe_idx
                )
            )

        out_scale = max(build.scale, probe.scale)
        state.charge(
            "compute", state.cost.probe(probe.modeled_rows + out_rows * out_scale)
        )
        state.metrics.tuples_joined += out_rows
        # The probe side never moved: its partitioning property survives.
        return ColumnarData(
            out_partitions, columns, probe.partitioned_on, out_scale
        )

    def label(self) -> str:
        pairs = ", ".join(
            f"{b} = {p}" for b, p in zip(self.build_keys, self.probe_keys, strict=True)
        )
        return f"BroadcastJoin [{pairs}]"


class IndexNestedLoopJoinOp(PhysicalOperator):
    """Broadcast the build input and probe a base dataset's secondary index.

    The probe side is *not* an operator subtree: INL requires the inner to be
    a stored base dataset with a secondary index on the join key, so the
    operator references it directly (there is no scan — that is the point).
    """

    algorithm = JoinAlgorithm.INDEX_NESTED_LOOP

    def __init__(
        self,
        build: PhysicalOperator,
        inner_dataset: str,
        inner_alias: str,
        build_keys: tuple[str, ...],
        inner_fields: tuple[str, ...],
    ) -> None:
        if len(build_keys) != len(inner_fields) or not build_keys:
            raise ExecutionError("join needs matching, non-empty key lists")
        self.children = (build,)
        self.inner_dataset = inner_dataset
        self.inner_alias = inner_alias
        self.build_keys = tuple(build_keys)
        self.inner_fields = tuple(inner_fields)  # *plain* field names

    def execute(self, state: ExecState) -> ColumnarData:
        build = self.children[0].run(state)
        dataset = state.datasets.get(self.inner_dataset)
        if dataset.is_intermediate:
            raise ExecutionError(
                f"INL inner {self.inner_dataset!r} must be a base dataset"
            )
        index_field = self.inner_fields[0]
        if not dataset.has_index(index_field):
            raise ExecutionError(
                f"INL requires a secondary index on "
                f"{self.inner_dataset}.{index_field}"
            )

        gathered = columnar_broadcast_exchange(build.materialized())
        state.charge(
            "network",
            state.cost.broadcast_exchange(build.modeled_rows, build.row_width),
        )

        prefix = f"{self.inner_alias}."
        residual = list(zip(self.build_keys[1:], self.inner_fields[1:], strict=True))
        key_column = gathered.column(self.build_keys[0])
        residual_columns = [
            (gathered.column(bk), f) for bk, f in residual
        ]
        inner_fields = [f.name for f in dataset.schema.fields]
        columns = {prefix + f.name: f.dtype for f in dataset.schema.fields}
        columns.update(build.columns)
        build_names = gathered.columns.keys()

        out_partitions: list[ColumnPartition] = []
        out_rows = 0
        lookups = 0
        for partition_id, inner_rows in enumerate(dataset.partitions):
            index = dataset.index_for(index_field, partition_id)
            inner_idx: list[int] = []
            build_idx: list[int] = []
            for i in range(gathered.length):
                lookups += 1
                for position in index.lookup(key_column[i]):
                    inner = inner_rows[position]
                    if any(
                        col[i] != inner.get(f) for col, f in residual_columns
                    ):
                        continue
                    inner_idx.append(position)
                    build_idx.append(i)
            out_rows += len(build_idx)
            cols: dict[str, list] = {}
            for name in columns:
                if name in build_names:
                    cols[name] = vector.gather(gathered.columns[name], build_idx)
            for field_name in inner_fields:
                qualified = prefix + field_name
                if qualified not in build_names:
                    cols[qualified] = [
                        inner_rows[p].get(field_name) for p in inner_idx
                    ]
            out_partitions.append(ColumnPartition(cols, len(build_idx)))

        # Every partition performs the full set of (modeled) lookups, in
        # parallel with the other partitions.
        out_scale = max(build.scale, dataset.scale)
        state.charge(
            "index", state.cost.index_lookups(gathered.length * build.scale)
        )
        state.charge("compute", state.cost.probe(out_rows * out_scale))
        state.metrics.index_lookups += lookups
        state.metrics.tuples_joined += out_rows

        partitioned_on = (
            prefix + dataset.partition_key if dataset.partition_key else None
        )
        return ColumnarData(out_partitions, columns, partitioned_on, out_scale)

    def label(self) -> str:
        pairs = ", ".join(
            f"{b} = {self.inner_alias}.{f}"
            for b, f in zip(self.build_keys, self.inner_fields, strict=True)
        )
        return f"IndexNLJoin [{pairs}] (inner {self.inner_dataset})"
