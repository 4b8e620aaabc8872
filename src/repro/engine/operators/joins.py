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

That is what the simulated clock is *charged*. On the host, the hash and
broadcast joins match globally and move only the rows that join (DESIGN.md §10.2).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import chain, repeat

from repro.common.errors import ExecutionError
from repro.engine import vector
from repro.engine.data import ColumnarData, ColumnPartition, scan_partitions
from repro.engine.exchange import columnar_broadcast_exchange, concat_partitions
from repro.engine.operators.base import ExecState, PhysicalOperator

#: per output partition: (build positions, probe positions) into the flat inputs
Placement = list[tuple[list[int], list[int]]]


class JoinAlgorithm(enum.Enum):
    HASH = "hash"
    BROADCAST = "broadcast"
    INDEX_NESTED_LOOP = "inl"

    @property
    def plan_marker(self) -> str:
        """Appendix notation: plain ⋈ for hash, 'b' broadcast, 'i' INL."""
        return {"broadcast": "b", "inl": "i"}.get(self.value, "")


def _gather_join_output(
    columns: dict,
    build_rows: ColumnPartition,
    probe_rows: ColumnPartition,
    build_idx: list[int],
    probe_idx: list[int],
) -> ColumnPartition:
    """One join output partition from matched position pairs. Physical columns
    follow the logical map's order; a name on both sides reads the build's."""
    out: dict[str, Sequence] = {}
    for name in columns:
        if name in build_rows.columns:
            out[name] = vector.gather(build_rows.columns[name], build_idx)
        elif name in probe_rows.columns:
            out[name] = vector.gather(probe_rows.columns[name], probe_idx)
    return ColumnPartition(out, len(build_idx))


def _placed_where_probed(
    probe_parts: list[ColumnPartition], build_idx: list[int], probe_idx: list[int]
) -> Placement:
    """Matches stay in their probe row's partition: ``probe_idx`` ascends, so
    each partition owns one contiguous run of the output."""
    placed: Placement = []
    lo = offset = 0
    for partition in probe_parts:
        offset += partition.length
        hi = bisect_left(probe_idx, offset, lo)
        placed.append((build_idx[lo:hi], probe_idx[lo:hi]))
        lo = hi
    return placed


def _placed_by_route(
    route_column: Sequence,
    partition_count: int,
    build_idx: list[int],
    probe_idx: list[int],
) -> Placement:
    """Matches land on ``stable_hash(route value) % partition_count``, output
    order kept within a destination. Routed once per matched probe *row* and
    fanned out to its matches: an expanding join has far more output rows."""
    matches_per_row = Counter(probe_idx)  # ascending probe row -> match count
    slots: Iterable[int] = vector.route_partitions(
        vector.gather(route_column, matches_per_row), partition_count
    )
    if len(matches_per_row) != len(probe_idx):  # expanding: fan each slot out
        slots = chain.from_iterable(map(repeat, slots, matches_per_row.values()))
    placed: Placement = [([], []) for _ in range(partition_count)]
    for slot, build_position, probe_position in zip(slots, build_idx, probe_idx):
        placed[slot][0].append(build_position)
        placed[slot][1].append(probe_position)
    return placed


class _BuildProbeJoinOp(PhysicalOperator):
    """The one data path of the hash and broadcast joins (DESIGN.md §10.2).

    One table over the build rows in source order (partition, then position)
    is probed by the probe rows in source order; only the *matches* are then
    placed — routed on ``probe_keys[0]`` when the modeled plan moves the probe
    side, left in the probe row's partition when it does not. Every output
    partition holds the rows, in the order, that exchanging the inputs and
    joining partition by partition would give, and the simulated clock is
    charged from logical row counts and widths as if they had moved.
    ``build_keys[i]`` joins against ``probe_keys[i]`` by tuple equality.
    """

    algorithm: JoinAlgorithm

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
        hashed = self.algorithm is JoinAlgorithm.HASH
        cost = state.cost

        probe_moves = hashed and probe.partitioned_on != self.probe_keys[0]
        if hashed:
            build_rows = concat_partitions(build.partitions)
            if build.partitioned_on != self.build_keys[0]:
                state.charge(
                    "network", cost.hash_exchange(build.modeled_rows, build.row_width)
                )
            if probe_moves:
                state.charge(
                    "network", cost.hash_exchange(probe.modeled_rows, probe.row_width)
                )
            state.charge("compute", cost.hash_build(build.modeled_rows))
        else:
            # One shared copy stands in for the replicas the cost model charges.
            build_rows = columnar_broadcast_exchange(build.partitions)
            state.charge(
                "network", cost.broadcast_exchange(build.modeled_rows, build.row_width)
            )
            state.charge("compute", cost.broadcast_build(build.modeled_rows))

        probe_parts = probe.partitions
        probe_rows = concat_partitions(probe_parts)
        build_idx, probe_idx = vector.probe_hash_table(
            vector.build_hash_table(
                vector.join_key_column(
                    build_rows.columns, build_rows.length, self.build_keys
                )
            ),
            vector.probe_key_column(
                probe_rows.columns, probe_rows.length, self.probe_keys
            ),
        )
        if probe_moves:
            placed = _placed_by_route(
                probe_rows.column(self.probe_keys[0]),
                state.cluster.partitions,
                build_idx,
                probe_idx,
            )
        else:
            placed = _placed_where_probed(probe_parts, build_idx, probe_idx)
        columns = {**probe.columns, **build.columns}  # build overwrites overlaps
        out_partitions = [
            _gather_join_output(columns, build_rows, probe_rows, *positions)
            for positions in placed
        ]

        out_rows = len(build_idx)
        out_scale = max(build.scale, probe.scale)
        state.charge("compute", cost.probe(probe.modeled_rows + out_rows * out_scale))
        if hashed:
            state.charge(
                "spill",
                cost.spill(
                    build.modeled_rows * build.row_width,
                    probe.modeled_rows * probe.row_width,
                ),
            )
        state.metrics.tuples_joined += out_rows
        # A broadcast join's probe side never moved: its partitioning survives.
        partitioned_on = self.probe_keys[0] if hashed else probe.partitioned_on
        return ColumnarData(out_partitions, columns, partitioned_on, out_scale)

    def label(self) -> str:
        pairs = ", ".join(
            f"{b} = {p}" for b, p in zip(self.build_keys, self.probe_keys, strict=True)
        )
        return f"{super().label()} [{pairs}]"


class HashJoinOp(_BuildProbeJoinOp):
    """Partitioned dynamic hash join: charged for re-partitioning each input
    not already partitioned on its first join key, and for spill; its output
    is partitioned on ``probe_keys[0]``."""

    algorithm = JoinAlgorithm.HASH


class BroadcastJoinOp(_BuildProbeJoinOp):
    """Broadcast join: charged for replicating the build input to every
    partition of the probe input, which never moves."""

    algorithm = JoinAlgorithm.BROADCAST


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

        gathered = columnar_broadcast_exchange(build.partitions)
        state.charge(
            "network",
            state.cost.broadcast_exchange(build.modeled_rows, build.row_width),
        )

        prefix = f"{self.inner_alias}."
        key_column = gathered.column(self.build_keys[0])
        residual_columns = [
            (gathered.column(bk), prefix + f)
            for bk, f in zip(self.build_keys[1:], self.inner_fields[1:], strict=True)
        ]
        columns = {prefix + f.name: f.dtype for f in dataset.schema.fields}
        inner_names = tuple(columns)
        columns.update(build.columns)
        build_names = gathered.columns.keys()

        out_partitions: list[ColumnPartition] = []
        out_rows = 0
        lookups = 0
        for partition_id, inner in enumerate(scan_partitions(dataset, prefix)):
            index = dataset.index_for(index_field, partition_id)
            residuals = [(col, inner.column(name)) for col, name in residual_columns]
            inner_idx: list[int] = []
            build_idx: list[int] = []
            for i in range(gathered.length):
                lookups += 1
                for position in index.lookup(key_column[i]):
                    if any(
                        col[i] != inner_col[position] for col, inner_col in residuals
                    ):
                        continue
                    inner_idx.append(position)
                    build_idx.append(i)
            out_rows += len(build_idx)
            cols: dict[str, list] = {}
            for name in columns:
                if name in build_names:
                    cols[name] = vector.gather(gathered.columns[name], build_idx)
            for name in inner_names:
                if name not in build_names:
                    cols[name] = vector.gather(inner.column(name), inner_idx)
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
