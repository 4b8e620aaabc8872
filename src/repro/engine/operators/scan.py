"""Scan and Reader operators.

``ScanOp`` reads a base dataset and qualifies its columns with the scan
alias. ``ReaderOp`` reads a previously materialized intermediate (Figure 4:
"the new operator introduced in this phase (Reader A') indicates that a
datasource is not a base dataset") — its columns are already qualified and it
is charged materialized-read I/O instead of base-scan I/O.

Both return partitions whose columns are read from storage lazily
(:func:`repro.engine.data.scan_partitions`): no column is touched until a
consumer reads it, so the fused select/project kernel above the scan reads
only referenced columns (and non-predicate columns only for surviving rows).
``live`` — attached by job generation's projection pushdown — names the
columns the rest of the job can ever need; ``None`` means "no pushdown
information, keep everything".
"""

from __future__ import annotations

from repro.common.errors import ExecutionError
from repro.engine.data import ColumnarData, scan_partitions
from repro.engine.operators.base import ExecState, PhysicalOperator


class ScanOp(PhysicalOperator):
    """Full scan of a base dataset under an alias."""

    def __init__(
        self, dataset: str, alias: str, live: tuple[str, ...] | None = None
    ) -> None:
        self.dataset = dataset
        self.alias = alias
        #: qualified columns referenced by the rest of the job (only these
        #: are materialized); ``None`` -> all schema columns
        self.live = tuple(live) if live is not None else None

    def execute(self, state: ExecState) -> ColumnarData:
        dataset = state.datasets.get(self.dataset)
        if dataset.is_intermediate:
            raise ExecutionError(
                f"ScanOp targets base datasets; use ReaderOp for {self.dataset!r}"
            )
        prefix = f"{self.alias}."
        columns = {prefix + f.name: f.dtype for f in dataset.schema.fields}
        partitioned_on = (
            prefix + dataset.partition_key if dataset.partition_key else None
        )
        state.charge(
            "scan", state.cost.scan(dataset.modeled_rows, dataset.schema.row_width)
        )
        state.metrics.tuples_scanned += dataset.row_count
        partitions = scan_partitions(dataset, prefix, self.live)
        return ColumnarData(partitions, columns, partitioned_on, dataset.scale)

    def label(self) -> str:
        return f"Scan {self.alias}" if self.alias == self.dataset else f"Scan {self.dataset} AS {self.alias}"


class ReaderOp(PhysicalOperator):
    """Read back a materialized re-optimization-point result."""

    def __init__(self, dataset: str, live: tuple[str, ...] | None = None) -> None:
        self.dataset = dataset
        self.live = tuple(live) if live is not None else None

    def execute(self, state: ExecState) -> ColumnarData:
        dataset = state.datasets.get(self.dataset)
        if not dataset.is_intermediate:
            raise ExecutionError(
                f"ReaderOp targets intermediates; use ScanOp for {self.dataset!r}"
            )
        columns = {f.name: f.dtype for f in dataset.schema.fields}
        state.charge(
            "materialize",
            state.cost.read_materialized(dataset.modeled_rows, dataset.schema.row_width),
        )
        partitions = scan_partitions(dataset, "", self.live)
        return ColumnarData(
            partitions, columns, dataset.partition_key, dataset.scale
        )

    def label(self) -> str:
        return f"Reader {self.dataset}"
