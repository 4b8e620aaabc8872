"""Pilot-run baseline [Karanasos et al., SIGMOD 2014].

Initial statistics come from *pilot runs*: select-project queries over each
base dataset that include its local predicates and stop "after k tuples have
been output" (the paper simulates this with a LIMIT clause). From those
sample statistics an initial plan is formed; execution then proceeds through
re-optimization points that adjust the remaining plan with online feedback.

Two deliberate weaknesses carried over from the paper's analysis:

- **Prefix sampling.** The pilot scans rows in storage order until ``k``
  outputs, so distinct counts are linearly scaled up from the sample. For a
  key column that is harmless, but for duplicated join keys (fact-to-fact
  conditions like ticket_number) the scaled estimate badly overshoots the
  true distinct count, deflating the formula-(1) join estimate and promoting
  the fact-to-fact join too early — the Q50 failure mode.
- **Overhead.** Pilot jobs are charged against the clock; on queries where
  the final plan matches the dynamic one (Q8) pilot-run is "slightly slower"
  for exactly this reason.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass

from repro.algebra.toolkit import alias_stats_key
from repro.core.driver import DynamicOptimizer
from repro.engine import vector
from repro.engine.data import ColumnBatch, scan_batch
from repro.engine.metrics import JobMetrics
from repro.engine.scheduler.request import QueryRun
from repro.lang.ast import EvaluationContext, Query
from repro.stats.catalog import DatasetStatistics
from repro.stats.collector import FieldStatistics, StatisticsCollector

#: the row-number column a pilot adds to the batch it filters (not a
#: qualified name, so it shadows no stored column)
_ROW = "#"


@dataclass
class ScaledFieldStatistics(FieldStatistics):
    """Sample field statistics whose distinct count is linearly scaled."""

    scale: float = 1.0

    @property
    def distinct_count(self) -> float:
        raw = super().distinct_count
        return max(1.0, raw * self.scale)

    @classmethod
    def from_sample(cls, sample: FieldStatistics, scale: float) -> ScaledFieldStatistics:
        scaled = cls(sample.field_name, scale=scale)
        scaled.adopt(sample)
        return scaled


class PilotRunOptimizer(DynamicOptimizer):
    """Sample-seeded incremental optimization."""

    name = "pilot_run"

    def __init__(self, inl_enabled: bool = False, sample_limit: int = 100) -> None:
        super().__init__(inl_enabled=inl_enabled)
        self.sample_limit = sample_limit

    def fuse_plan(self, state, toolkit, picked, keep, stats_columns):
        """Sample-scaled estimates are what the points are there to correct,
        not something to price them with: the fixed schedule."""
        return None

    def prepare_stages(self, run: QueryRun, session):
        """Per-table pilot sampling as virtual-cost stages, in place of the
        push-down prelude: the main execution evaluates local predicates
        inline (no push-down materialization — the dynamic approach's
        addition), so there is no prelude outcome to return.

        The rows are gathered here (the sample drives the statistics), but
        the charge is submitted as a pre-computed cost delta so a scheduler
        can account the pilot jobs on the shared cluster clock.
        """
        query = run.query
        context = EvaluationContext(query.parameters, session.udfs)
        for table in query.tables:
            entry, scanned = self._pilot_entry(query, table.alias, session, context)
            run.statistics.register(entry)
            yield run.charge(
                f"pilot:{table.alias}",
                self._pilot_cost(session, table, scanned, len(entry.fields)),
                kind="pilot",
            )

    # -- pilot execution ----------------------------------------------------------

    def _pilot_entry(
        self, query: Query, alias: str, session, context: EvaluationContext
    ) -> tuple[DatasetStatistics, int]:
        """Run one pilot: the first ``sample_limit`` qualifying rows in
        storage order, and the prefix they span (what the modeled pilot
        scans) — one filter pass over the dataset's batch."""
        table = query.table(alias)
        dataset = session.datasets.get(table.dataset)
        predicates = query.predicates_for(alias)
        prefix = f"{alias}."

        # at least one row is sampled whatever the limit says
        limit = max(1, self.sample_limit)
        names = dataset.schema.field_names
        batch = scan_batch(dataset, prefix)
        numbered = ColumnBatch(
            ChainMap({_ROW: range(batch.length)}, batch.columns), batch.bounds
        )
        kept = vector.fused_filter_project(numbered, predicates, (_ROW,), context)
        rows = kept.columns[_ROW][:limit]
        sampled = len(rows)
        scanned = rows[-1] + 1 if sampled >= limit else batch.length
        collector = StatisticsCollector(list(names))
        collector.observe_columns(
            {name: vector.gather(dataset.column(name), rows) for name in names},
            sampled,
        )

        total = dataset.row_count
        selectivity = sampled / scanned if scanned else 0.0
        estimated_rows = max(0.0, total * selectivity)
        scale = total / scanned if scanned else 1.0
        fields = {
            name: ScaledFieldStatistics.from_sample(stats, scale)
            for name, stats in collector.fields.items()
        }
        entry = DatasetStatistics(
            name=alias_stats_key(alias),
            row_count=estimated_rows,
            row_width=dataset.schema.row_width,
            fields=fields,
            predicates_applied=True,
            scale=dataset.scale,
        )
        return entry, scanned

    def _pilot_cost(
        self, session, table, scanned: int, field_count: int
    ) -> JobMetrics:
        """One pilot job's charge as a metrics delta (a virtual-cost job,
        whose launch the runner adds)."""
        cost = session.executor.cost
        dataset = session.datasets.get(table.dataset)
        modeled_scanned = scanned * dataset.scale
        delta = JobMetrics()
        delta.tuples_scanned = scanned
        delta.scan = cost.scan(modeled_scanned, dataset.schema.row_width)
        delta.compute = cost.predicate_eval(modeled_scanned)
        delta.stats = cost.statistics(
            min(scanned, self.sample_limit) * dataset.scale, field_count
        )
        return delta
