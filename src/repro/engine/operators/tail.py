"""Post-join operators: group-by, order-by, limit.

Section 6.4: non-join operators "are evaluated after all the joins and
selections have been completed". The reproduction supports the tails the four
evaluation queries need: GROUP BY with an implicit COUNT(*), global ORDER BY,
and LIMIT.

Groups appear in first-occurrence order (insertion-ordered dicts), the global
sort is a stable index sort over the ``_sort_key`` total order, and LIMIT
slices columns in partition order.
"""

from __future__ import annotations

from repro.common.types import DataType
from repro.engine.data import ColumnarData, ColumnPartition
from repro.engine.exchange import columnar_hash_exchange
from repro.engine.operators.base import ExecState, PhysicalOperator


class GroupByOp(PhysicalOperator):
    """Hash-partitioned grouping on the key columns with a COUNT(*) output."""

    def __init__(self, child: PhysicalOperator, keys: tuple[str, ...]) -> None:
        self.children = (child,)
        self.keys = tuple(keys)

    def execute(self, state: ExecState) -> ColumnarData:
        data = self.children[0].run(state)
        keys = self.keys
        partitions = data.partitions
        if data.partitioned_on not in keys:
            key_cols = [[p.column(k) for k in keys] for p in partitions]
            route_keys = [
                [tuple(col[i] for col in cols) for i in range(p.length)]
                for p, cols in zip(partitions, key_cols, strict=True)
            ]
            partitions = columnar_hash_exchange(
                partitions, route_keys, state.cluster.partitions
            )
            state.charge(
                "network", state.cost.hash_exchange(data.modeled_rows, data.row_width)
            )
        out_partitions: list[ColumnPartition] = []
        for partition in partitions:
            cols = [partition.column(k) for k in keys]
            counts: dict[tuple, int] = {}
            for i in range(partition.length):
                key = tuple(col[i] for col in cols)
                counts[key] = counts.get(key, 0) + 1
            out: dict[str, list] = {k: [] for k in keys}
            out["count"] = []
            for key, count in counts.items():
                for k, value in zip(keys, key, strict=True):
                    out[k].append(value)
                out["count"].append(count)
            out_partitions.append(ColumnPartition(out, len(counts)))
        state.charge("compute", state.cost.probe(data.modeled_rows))

        # Group counts are per modeled group; the number of *groups* does not
        # scale with the fact tables, so the output is unscaled.
        columns = {k: data.columns.get(k, DataType.STRING) for k in keys}
        columns["count"] = DataType.BIGINT
        return ColumnarData(out_partitions, columns, None)

    def label(self) -> str:
        return "GroupBy " + ", ".join(self.keys)


class OrderByOp(PhysicalOperator):
    """Global sort: rows are gathered and ordered by the key columns."""

    def __init__(self, child: PhysicalOperator, keys: tuple[str, ...]) -> None:
        self.children = (child,)
        self.keys = tuple(keys)

    def execute(self, state: ExecState) -> ColumnarData:
        data = self.children[0].run(state)
        names: list[str] = []
        for partition in data.partitions:
            for name in partition.columns:
                if name not in names:
                    names.append(name)
        gathered = {name: [] for name in names}
        for partition in data.partitions:
            for name in names:
                gathered[name].extend(partition.column(name))
        total = data.row_count
        key_cols = [
            gathered.get(k, [None] * total) for k in self.keys
        ]
        order = sorted(
            range(total),
            key=lambda i: tuple(_sort_key(col[i]) for col in key_cols),
        )
        state.charge("compute", state.cost.probe(data.modeled_rows) * 2)
        sorted_cols = {
            name: [column[i] for i in order] for name, column in gathered.items()
        }
        partitions: list[ColumnPartition] = [
            ColumnPartition({name: [] for name in names}, 0)
            for _ in range(data.partition_count)
        ]
        partitions[0] = ColumnPartition(sorted_cols, total)
        return ColumnarData(partitions, data.columns, None, data.scale)

    def label(self) -> str:
        return "OrderBy " + ", ".join(self.keys)


def _sort_key(value: object) -> tuple:
    """Total order over mixed None/number/string values."""
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, value)
    return (2, str(value))


class LimitOp(PhysicalOperator):
    """Keep the first ``n`` rows (in partition order)."""

    def __init__(self, child: PhysicalOperator, n: int) -> None:
        self.children = (child,)
        self.n = n

    def execute(self, state: ExecState) -> ColumnarData:
        data = self.children[0].run(state)
        remaining = self.n
        partitions: list[ColumnPartition] = []
        for partition in data.partitions:
            take = min(remaining, partition.length)
            remaining -= take
            partitions.append(
                ColumnPartition(
                    {n: col[:take] for n, col in partition.columns.items()},
                    take,
                )
            )
        return ColumnarData(
            partitions, data.columns, data.partitioned_on, data.scale
        )

    def label(self) -> str:
        return f"Limit {self.n}"
