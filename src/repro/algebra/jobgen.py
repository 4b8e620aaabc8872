"""Job construction: compile plan trees into runnable Hyracks jobs.

Covers the three settings of Section 6.3: (1) jobs whose output must be
materialized for future use (Sink), (2) jobs consuming previously
materialized outputs (Reader), and (3) the final job returning results to the
user (DistributeResult). Also builds the Phase-1 predicate push-down jobs of
Figure 4 (Scan → Select → Sink).
"""

from __future__ import annotations

from repro.algebra.plan import JoinNode, LeafNode, PlanNode
from repro.common.errors import PlanError
from repro.engine.job import Job
from repro.engine.operators.joins import (
    BroadcastJoinOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    JoinAlgorithm,
)
from repro.engine.operators.base import PhysicalOperator
from repro.engine.operators.filters import SemiJoinFilterOp
from repro.engine.operators.scan import ReaderOp, ScanOp
from repro.engine.operators.select import ProjectOp, SelectOp
from repro.engine.operators.sink import DistributeResultOp, SinkOp
from repro.engine.operators.tail import GroupByOp, LimitOp, OrderByOp
from repro.lang.ast import Predicate, Query, TableRef, split_column
from repro.storage.catalog import DatasetCatalog


def leaf_provides(leaf: LeafNode, datasets: DatasetCatalog) -> set[str]:
    """Qualified columns one leaf contributes to the dataflow."""
    dataset = datasets.get(leaf.dataset)
    if dataset.is_intermediate:
        return set(dataset.schema.field_names)
    return {f"{leaf.alias}.{name}" for name in dataset.schema.field_names}


def node_provides(node: PlanNode, datasets: DatasetCatalog) -> set[str]:
    if isinstance(node, LeafNode):
        return leaf_provides(node, datasets)
    if isinstance(node, JoinNode):
        return node_provides(node.build, datasets) | node_provides(
            node.probe, datasets
        )
    raise PlanError(f"cannot analyze node type {type(node).__name__}")


def compile_leaf(
    leaf: LeafNode, datasets: DatasetCatalog, required: set[str] | None = None
):
    """One leaf: Scan/Reader plus its pushed-down Select.

    ``required`` (qualified columns the consumer needs from this leaf) turns
    into the source's ``live`` set — required plus the predicate columns the
    Select itself reads — so the scan materializes only referenced
    columns. ``None`` keeps every column alive; results are identical either
    way.
    """
    dataset = datasets.get(leaf.dataset)
    live = None
    if required is not None:
        keep = required & leaf_provides(leaf, datasets)
        if keep:
            live = tuple(
                sorted(keep | {p.column for p in leaf.predicates})
            )
    if dataset.is_intermediate:
        source = ReaderOp(leaf.dataset, live=live)
    else:
        source = ScanOp(leaf.dataset, leaf.alias, live=live)
    if leaf.predicates:
        return SelectOp(source, leaf.predicates)
    return source


def compile_plan(
    plan: PlanNode, datasets: DatasetCatalog, required: set[str] | None = None
):
    """Compile a join tree into an operator tree (no tail, no sink).

    ``required`` is the set of qualified columns the consumer above still
    needs; when given, projections are pushed down so scans and exchanges
    carry only live columns (AsterixDB's rule-based optimizer does the same
    — without this, pipelined single-job plans would pay for dead columns
    that the dynamic approach's narrow materialized intermediates never
    carry).
    """
    if isinstance(plan, LeafNode):
        op = compile_leaf(plan, datasets, required)
        if required is not None:
            keep = sorted(required & leaf_provides(plan, datasets))
            if keep:
                op = ProjectOp(op, tuple(keep))
        return op
    if not isinstance(plan, JoinNode):
        raise PlanError(f"cannot compile node type {type(plan).__name__}")

    child_required = None
    if required is not None:
        child_required = set(required) | set(plan.build_keys) | set(plan.probe_keys)

    build_op = compile_plan(plan.build, datasets, child_required)
    if plan.algorithm is JoinAlgorithm.INDEX_NESTED_LOOP:
        if not isinstance(plan.probe, LeafNode):
            raise PlanError("INL probe side must be a base-dataset leaf")
        if plan.probe.predicates:
            raise PlanError("INL probe side must not carry local predicates")
        inner_fields = tuple(split_column(c)[1] for c in plan.probe_keys)
        op = IndexNestedLoopJoinOp(
            build_op,
            plan.probe.dataset,
            plan.probe.alias,
            plan.build_keys,
            inner_fields,
        )
    else:
        probe_op = compile_plan(plan.probe, datasets, child_required)
        op_type = (
            BroadcastJoinOp
            if plan.algorithm is JoinAlgorithm.BROADCAST
            else HashJoinOp
        )
        op = op_type(build_op, probe_op, plan.build_keys, plan.probe_keys)
    # Carry the planner's cardinality estimate onto the physical operator so
    # the tracer can pair it with the measured output (estimate accuracy).
    op.estimated_rows = plan.estimated_rows
    if required is not None:
        keep = sorted(required & node_provides(plan, datasets))
        if keep:
            op = ProjectOp(op, tuple(keep))
    return op


def query_required_columns(query: Query) -> set[str]:
    """Columns the query tail consumes from the join output."""
    required = set(query.select) | set(query.group_by) | set(query.order_by)
    return required


def build_final_job(plan: PlanNode, query: Query, datasets: DatasetCatalog) -> Job:
    """The last job: joins, the query tail, and DistributeResult."""
    op = compile_plan(plan, datasets, query_required_columns(query))
    if query.group_by:
        op = GroupByOp(op, query.group_by)
        if query.order_by:
            op = OrderByOp(op, query.order_by)
    else:
        if query.order_by:
            op = OrderByOp(op, query.order_by)
        op = ProjectOp(op, query.select)
    if query.limit is not None:
        op = LimitOp(op, query.limit)
    return Job(
        DistributeResultOp(op),
        label=f"final {plan.describe()}",
        phase="final",
        plan=plan,
    )


def build_sink_job(
    plan: PlanNode,
    name: str,
    keep_columns: tuple[str, ...],
    stats_columns: tuple[str, ...],
    datasets: DatasetCatalog,
    phase: str = "join",
) -> Job:
    """An intermediate job whose output is materialized for later stages."""
    op = compile_plan(plan, datasets, set(keep_columns) | set(stats_columns))
    sink = SinkOp(op, name, keep_columns, stats_columns)
    return Job(sink, label=f"{name} = {plan.describe()}", phase=phase, plan=plan)


def build_transfer_job(
    source_name: str,
    alias: str,
    is_intermediate: bool,
    predicates: tuple[Predicate, ...],
    filters: tuple,
    keep_columns: tuple[str, ...],
    name: str,
    stats_columns: tuple[str, ...],
    phase: str,
) -> Job:
    """One predicate-transfer reduce job:
    Scan/Reader → Select → SemiJoinFilter → Sink.

    ``filters`` is the ordered ``(qualified probe column, BloomFilter)``
    tuple the partners transferred; ``source_name`` is the base dataset (with
    ``alias`` and local ``predicates``) on the first reduction of a FROM
    entry, or the previous transfer intermediate (already filtered, so no
    predicates re-run) on later reductions.
    """
    live = tuple(
        sorted(
            set(keep_columns)
            | set(stats_columns)
            | {p.column for p in predicates}
            | {column for column, _ in filters}
        )
    )
    source: PhysicalOperator
    if is_intermediate:
        source = ReaderOp(source_name, live=live)
    else:
        source = ScanOp(source_name, alias, live=live)
    filtered: PhysicalOperator = source
    if predicates:
        filtered = SelectOp(filtered, predicates)
    filtered = SemiJoinFilterOp(filtered, filters)
    sink = SinkOp(filtered, name, keep_columns, stats_columns)
    return Job(sink, label=f"{name} = transfer({alias})", phase=phase)


def build_pushdown_job(
    table: TableRef,
    predicates: tuple[Predicate, ...],
    keep_columns: tuple[str, ...],
    name: str,
    stats_columns: tuple[str, ...],
) -> Job:
    """Phase 1 of Figure 4: Scan -> Select -> Sink for one filtered dataset."""
    live = tuple(
        sorted(
            set(keep_columns)
            | set(stats_columns)
            | {p.column for p in predicates}
        )
    )
    scan = ScanOp(table.dataset, table.alias, live=live)
    select = SelectOp(scan, predicates)
    sink = SinkOp(select, name, keep_columns, stats_columns)
    return Job(sink, label=f"{name} = σ({table.alias})", phase="pushdown")
