"""Sink operator: materialize intermediate results + collect online statistics.

Section 6.3: "The Sink operator is responsible for materializing intermediate
data while also gathering statistics on them." The sink projects down to the
columns the remaining query still needs (Section 5.1's single-variable
queries project only fields that participate in the rest of the query — this
is what keeps intermediates narrow), writes per-partition temp data, and,
when requested, registers fresh sketches for the attributes participating in
subsequent join stages.

Intermediates are stored as the columns the sink already holds — one tuple
per kept column per partition (:class:`repro.storage.dataset.StoredPartition`),
no dict per row. Statistics are collected after the store, from the stored
tuples of the whole Sink in one call: row count, null counts and one HLL per
tracked column at once (a value is digested once however many partitions
hold it), the quantile sketch on first read, if ever. The clock charges both.
"""

from __future__ import annotations

from repro.engine.data import ColumnarData
from repro.engine.operators.base import ExecState, PhysicalOperator
from repro.stats.collector import StatisticsCollector
from repro.storage.dataset import StoredPartition
from repro.storage.ingest import register_intermediate


class SinkOp(PhysicalOperator):
    """Materialize the child's output as a named intermediate dataset."""

    def __init__(
        self,
        child: PhysicalOperator,
        name: str,
        keep_columns: tuple[str, ...],
        stats_columns: tuple[str, ...] = (),
    ) -> None:
        self.children = (child,)
        self.name = name
        self.keep_columns = tuple(keep_columns)
        self.stats_columns = tuple(stats_columns)

    def execute(self, state: ExecState) -> ColumnarData:
        data = self.children[0].run(state)
        projected = data.project(self.keep_columns)
        stored = register_intermediate(
            name=self.name,
            schema=projected.schema(),
            partitions=[
                StoredPartition.of_columns(partition.columns, partition.length)
                for partition in projected.partitions
            ],
            partition_key=projected.partitioned_on,
            datasets=state.datasets,
            scale=projected.scale,
        )
        state.charge(
            "materialize",
            state.cost.materialize(projected.modeled_rows, projected.row_width),
        )
        state.metrics.rows_materialized += projected.row_count

        tracked = [c for c in self.stats_columns if c in projected.columns]
        collector = StatisticsCollector(tracked)
        if self.stats_columns:
            collector.observe_columns(
                {name: stored.column(name) for name in tracked}, projected.row_count
            )
            state.charge(
                "stats",
                state.cost.statistics(projected.modeled_rows, max(1, len(tracked))),
            )
        else:
            # Register row count / width only: even without online sketches the
            # driver needs S(x) of the intermediate for the final ordering.
            collector.row_count = projected.row_count
        state.statistics.register_from_collector(
            self.name, collector, projected.row_width, projected.scale
        )
        return projected

    def label(self) -> str:
        return f"Sink ({self.name})"


class DistributeResultOp(PhysicalOperator):
    """Funnel final rows back to the coordinator (end of the last job)."""

    def __init__(self, child: PhysicalOperator) -> None:
        self.children = (child,)

    def execute(self, state: ExecState) -> ColumnarData:
        data = self.children[0].run(state)
        state.charge(
            "output", state.cost.result_output(data.modeled_rows, data.row_width)
        )
        state.metrics.rows_out += data.row_count
        return data

    def label(self) -> str:
        return "DistributeResult"
