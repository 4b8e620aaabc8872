"""Row-level operators: Select (filter), Assign (derived column), Project.

``AssignOp`` + ``SelectOp`` reproduce Figure 4's predicate push-down subjobs
("Assign t — Select t=C"): the UDF value is computed into a temporary column
and filtered. Query compilation usually folds the UDF into the predicate
directly, but the split form is available for plan fidelity and tests.

``SelectOp`` runs the fused filter+project kernel
(:func:`repro.engine.vector.fused_filter_project`) — one pass over the
dataflow's batch that filters on predicate columns and gathers its physical
columns (over a scan: its live set, read from storage only here) for
surviving rows, each of which stays in its partition.
"""

from __future__ import annotations

from repro.common.types import DataType
from repro.engine import vector
from repro.engine.data import ColumnarData, ColumnBatch
from repro.engine.operators.base import ExecState, PhysicalOperator
from repro.lang.ast import Predicate
from repro.lang.udf import apply_udf


class SelectOp(PhysicalOperator):
    """Filter rows by a conjunction of local predicates."""

    def __init__(self, child: PhysicalOperator, predicates: tuple[Predicate, ...]) -> None:
        self.children = (child,)
        self.predicates = tuple(predicates)

    def execute(self, state: ExecState) -> ColumnarData:
        data = self.children[0].run(state)
        batch = data.batch
        filtered = vector.fused_filter_project(
            batch, self.predicates, tuple(batch.columns), state.evaluation
        )
        state.charge(
            "compute",
            state.cost.predicate_eval(data.modeled_rows, len(self.predicates)),
        )
        return ColumnarData(filtered, data.columns, data.partitioned_on, data.scale)

    def label(self) -> str:
        return "Select " + " AND ".join(p.describe() for p in self.predicates)


class AssignOp(PhysicalOperator):
    """Compute ``target = udf(column)`` into a new column."""

    def __init__(
        self, child: PhysicalOperator, target: str, udf: str, column: str
    ) -> None:
        self.children = (child,)
        self.target = target
        self.udf = udf
        self.column = column

    def execute(self, state: ExecState) -> ColumnarData:
        data = self.children[0].run(state)
        fn = state.evaluation.udfs.get(self.udf)
        batch = data.batch
        out = dict(batch.columns)
        out[self.target] = apply_udf(fn, batch.column(self.column))
        assigned = ColumnBatch(out, batch.bounds)
        columns = dict(data.columns)
        columns[self.target] = DataType.DOUBLE
        state.charge("compute", state.cost.predicate_eval(data.modeled_rows, 1))
        return ColumnarData(assigned, columns, data.partitioned_on, data.scale)

    def label(self) -> str:
        return f"Assign {self.target} = {self.udf}({self.column})"


class ProjectOp(PhysicalOperator):
    """Keep only the named (qualified) columns."""

    def __init__(self, child: PhysicalOperator, columns: tuple[str, ...]) -> None:
        self.children = (child,)
        self.columns = tuple(columns)

    def execute(self, state: ExecState) -> ColumnarData:
        data = self.children[0].run(state)
        projected = data.project(self.columns)
        state.charge("compute", state.cost.probe(data.modeled_rows))
        return projected

    def label(self) -> str:
        return "Project " + ", ".join(self.columns)
