"""Online sketch-based optimization [COMPASS, Izenov et al., SIGMOD 2021].

COMPASS computes sketches for every table *during the pre-filtering scans* —
after local predicates are applied — and then plans the complete join order
from those sketch estimates alone. The crucial difference from the static
cost-based baseline is *when* the statistics are taken: ingestion-time
sketches describe unfiltered base data, so a multi-predicate filter must be
estimated by multiplying per-predicate selectivities (the independence
assumption the adversarial workloads break), whereas a post-filter sketch
*measures* the surviving cardinality and distinct counts exactly. The
strategy still trusts formula (1) across joins — unlike the dynamic
approach it never re-optimizes — so it isolates how far measured leaf
statistics alone close the gap to runtime re-optimization.

Execution shape, as stage generators like the other nine strategies:

1. one **sketch pass per FROM entry** — scan the dataset partition by
   partition, apply the alias's local predicates, and sketch each future
   join column over the survivors of all partitions (COMPASS's workers
   sketch a partition each and merge; an HLL of the union has the merged
   registers, so nothing is merged here). The pass happens in-process and is
   charged to the simulated clock as a virtual-cost job (launch + scan +
   predicate evaluation + sketch maintenance), like pilot-run sampling;
2. one **planning step** — an exhaustive bushy DP over the measured
   statistics (zero simulated cost, like every other planner);
3. one **final job** executing the whole join tree pipelined, with the
   leaves re-applying predicates inline (sketch passes materialize nothing).

Composes unchanged with the scheduler (stage generator protocol), the
P001–P007 verifier (the final job is an ordinary compiled job), the
execution engine (the sketch pass runs in-process, outside it) and the
QueryService.
"""

from __future__ import annotations

from repro.algebra.plan import PlanNode
from repro.algebra.toolkit import PlannerToolkit, alias_stats_key
from repro.engine import vector
from repro.engine.data import scan_partitions
from repro.engine.metrics import JobMetrics
from repro.engine.scheduler.request import QueryRun
from repro.lang.ast import EvaluationContext, Query, split_column
from repro.optimizers.base import Optimizer, final_job_stages
from repro.optimizers.enumeration import best_bushy_plan
from repro.stats.catalog import DatasetStatistics
from repro.stats.collector import FieldStatistics


def _survivors(dataset, prefix, predicates, context, chunk_size, live):
    """One pre-filtering scan: ``(kept columns, length)`` per stored partition."""
    for partition in scan_partitions(dataset, prefix):
        yield vector.fused_filter_project(partition, predicates, live, context, chunk_size)


class _SurvivingColumn:
    """One column of :func:`_survivors`, a batch per partition — scanned
    again at every iteration, so holding one holds no filtered copy."""

    def __init__(self, column: str, *scan) -> None:
        self.column, self.scan = column, scan

    def __iter__(self):
        return (kept[self.column] for kept, _ in _survivors(*self.scan, (self.column,)))


class SketchOnlineOptimizer(Optimizer):
    """Sketch during pre-filtering scans; plan the full join order once."""

    name = "sketch_online"

    def __init__(self, inl_enabled: bool = False) -> None:
        self.inl_enabled = inl_enabled
        #: the planned join tree of the last execution (plan capture)
        self.last_tree: PlanNode | None = None

    def stages(self, query: Query, session, namespace: str = ""):
        run = QueryRun(query, session, self.name, namespace)
        context = EvaluationContext(query.parameters, session.udfs)

        for table in query.tables:
            entry, delta = self._sketch_pass(query, table.alias, session, context)
            run.statistics.register(entry)
            yield run.charge(f"sketch:{table.alias}", delta, kind="sketch")

        toolkit = PlannerToolkit(query, session, run.statistics, self.inl_enabled)
        self.last_tree = plan = best_bushy_plan(toolkit)
        return (yield from final_job_stages(run, plan, query, session))

    # -- the sketch pass --------------------------------------------------------

    def _join_columns(self, query: Query, alias: str) -> tuple[str, ...]:
        """Fields of ``alias`` that participate in any join condition."""
        columns = []
        for condition in query.joins:
            for side in (condition.left, condition.right):
                side_alias, field_name = split_column(side)
                if side_alias == alias and field_name not in columns:
                    columns.append(field_name)
        return tuple(sorted(columns))

    def _sketch_pass(
        self, query: Query, alias: str, session, context: EvaluationContext
    ) -> tuple[DatasetStatistics, JobMetrics]:
        """One pre-filtering scan: post-predicate sketches for one FROM entry.

        Each join column's :class:`FieldStatistics` is fed every partition's
        survivors at once — the HLL of a union is the register-wise max
        COMPASS's workers would merge to, so nothing is merged here — and
        keeps a re-scan, not the survivors, for a quantile sketch no plan
        reads off a post-predicate entry.
        """
        dataset = session.datasets.get(query.table(alias).dataset)
        predicates = query.predicates_for(alias)
        columns = self._join_columns(query, alias)
        prefix = f"{alias}."
        scan = (dataset, prefix, predicates, context, session.executor.chunk_size)

        survivors = list(_survivors(*scan, tuple(prefix + name for name in columns)))
        qualified_rows = sum(length for _, length in survivors)
        fields = {name: FieldStatistics(name) for name in columns}
        for name, stats in fields.items():
            stats.observe_batches(
                [kept[prefix + name] for kept, _ in survivors],
                replay=_SurvivingColumn(prefix + name, *scan),
            )
            stats.digest()  # within the pass: the survivors are not kept

        entry = DatasetStatistics(
            name=alias_stats_key(alias),
            row_count=qualified_rows,
            row_width=dataset.schema.row_width,
            fields=fields,
            predicates_applied=True,
            scale=dataset.scale,
        )

        cost = session.executor.cost
        delta = JobMetrics()
        delta.startup = cost.job_startup()
        delta.scan = cost.scan(dataset.modeled_rows, dataset.schema.row_width)
        if predicates:
            delta.compute = cost.predicate_eval(dataset.modeled_rows)
        delta.stats = cost.statistics(qualified_rows * dataset.scale, len(columns))
        delta.tuples_scanned = dataset.row_count
        delta.jobs = 1
        return entry, delta
