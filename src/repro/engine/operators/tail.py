"""Post-join operators: group-by, order-by, limit.

Section 6.4: non-join operators "are evaluated after all the joins and
selections have been completed". The reproduction supports the tails the four
evaluation queries need: GROUP BY with an implicit COUNT(*), global ORDER BY,
and LIMIT.

Groups appear partition by partition in first-occurrence order
(insertion-ordered dicts), the global sort is a stable index sort over the
``_sort_key`` total order, and LIMIT slices the batch's columns in
partition order.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, repeat
from operator import sub

from repro.common.types import DataType
from repro.engine.data import ColumnarData, ColumnBatch
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
        batch = data.batch
        if data.partitioned_on not in keys:
            batch = columnar_hash_exchange(
                (batch,),
                list(zip(*(batch.column(k) for k in keys))),
                state.cluster.partitions,
            )
            state.charge(
                "network", state.cost.hash_exchange(data.modeled_rows, data.row_width)
            )
        # Each partition groups its own rows: a group is (partition, key), so
        # groups come out partition by partition, each in first-occurrence order.
        bounds = batch.bounds
        owners = chain.from_iterable(
            map(repeat, range(len(bounds) - 1), map(sub, bounds[1:], bounds))
        )
        counts: dict[tuple, int] = {}
        for group in zip(owners, zip(*(batch.column(k) for k in keys))):
            counts[group] = counts.get(group, 0) + 1
        groups = list(counts)
        out: dict[str, list] = {
            k: [key[i] for _, key in groups] for i, k in enumerate(keys)
        }
        out["count"] = list(counts.values())
        owner_of_group = [owner for owner, _ in groups]
        out_bounds = list(map(bisect_left, repeat(owner_of_group), range(len(bounds))))
        state.charge("compute", state.cost.probe(data.modeled_rows))

        # Group counts are per modeled group; the number of *groups* does not
        # scale with the fact tables, so the output is unscaled.
        columns = {k: data.columns.get(k, DataType.STRING) for k in keys}
        columns["count"] = DataType.BIGINT
        return ColumnarData(ColumnBatch(out, out_bounds), columns, None)

    def label(self) -> str:
        return "GroupBy " + ", ".join(self.keys)


class OrderByOp(PhysicalOperator):
    """Global sort: rows are gathered and ordered by the key columns."""

    def __init__(self, child: PhysicalOperator, keys: tuple[str, ...]) -> None:
        self.children = (child,)
        self.keys = tuple(keys)

    def execute(self, state: ExecState) -> ColumnarData:
        data = self.children[0].run(state)
        batch = data.batch
        key_cols = [batch.column(k) for k in self.keys]
        order = sorted(
            range(batch.length),
            key=lambda i: tuple(_sort_key(col[i]) for col in key_cols),
        )
        state.charge("compute", state.cost.probe(data.modeled_rows) * 2)
        sorted_cols = {
            name: [column[i] for i in order] for name, column in batch.columns.items()
        }
        # every row on the first partition, the others empty
        bounds = [0] + [batch.length] * data.partition_count
        return ColumnarData(
            ColumnBatch(sorted_cols, bounds), data.columns, None, data.scale
        )

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
        batch = data.batch
        n = self.n
        kept = ColumnBatch(
            {name: col[:n] for name, col in batch.columns.items()},
            [min(bound, n) for bound in batch.bounds],
        )
        return ColumnarData(kept, data.columns, data.partitioned_on, data.scale)

    def label(self) -> str:
        return f"Limit {self.n}"
