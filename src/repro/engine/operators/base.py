"""Physical operator interface and shared execution state.

A job is a tree of :class:`PhysicalOperator` nodes. ``run`` pulls the child
outputs, performs the operator's work on real rows, charges the cost model
through :class:`ExecState`, and returns :class:`ColumnarData`. This is a
blocking, materialized evaluation of the tree — a deliberate simplification
of Hyracks' pipelined frames that keeps costs and results exact while
staying faithful to operator-level data movement.

Each operator implements one hook, ``execute``. The cost sequence it charges
and the rows it returns are pinned, for every strategy and sweep query, by
the golden fingerprints of ``tests/engine/equivalence.py`` (DESIGN.md §10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.config import ClusterConfig
from repro.cluster.cost import CostModel
from repro.engine.data import ColumnarData
from repro.engine.metrics import JobMetrics
from repro.lang.ast import EvaluationContext
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


@dataclass
class ExecState:
    """Everything an operator needs at run time."""

    cluster: ClusterConfig
    cost: CostModel
    datasets: DatasetCatalog
    statistics: StatisticsCatalog
    evaluation: EvaluationContext
    metrics: JobMetrics
    #: optional observer; operators open a span around each ``run``
    tracer: Tracer | None = None

    def charge(self, component: str, seconds: float) -> None:
        setattr(self.metrics, component, getattr(self.metrics, component) + seconds)


class PhysicalOperator:
    """Base class for all physical operators."""

    #: Children evaluated before this operator (subclasses override).
    children: tuple["PhysicalOperator", ...] = ()
    #: compile-time cardinality estimate (modeled rows) for join operators;
    #: set by ``compile_plan`` so the tracer can record estimate accuracy.
    estimated_rows: float | None = None
    #: for join operators: the columns of the ``ProjectOp`` that
    #: ``compile_plan`` puts above, the only ones the join gathers (the
    #: logical map, and with it every charge, stays whole); ``None`` -> all
    kept_columns: tuple[str, ...] | None = None

    def run(self, state: ExecState) -> ColumnarData:
        """Execute the operator, wrapped in a trace span when tracing is on.

        Tracing observes the metrics object before/after ``execute`` — it
        never charges the cost model, so simulated times are identical with
        and without a tracer.
        """
        tracer = state.tracer
        if tracer is None:
            return self.execute(state)
        token = tracer.begin_operator(self.label(), state.metrics)
        data = self.execute(state)
        tracer.end_operator(
            token,
            state.metrics,
            rows_out=data.row_count,
            modeled_rows_out=data.modeled_rows,
            estimated_rows=self.estimated_rows,
        )
        return data

    def execute(self, state: ExecState) -> ColumnarData:
        """The operator's work; every subclass implements this one hook."""
        raise NotImplementedError

    def label(self) -> str:
        """Short name used in plan rendering (Figure 4 vocabulary)."""
        return type(self).__name__.replace("Op", "")

    def render(self, indent: int = 0) -> str:
        """ASCII rendering of the operator subtree."""
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)
