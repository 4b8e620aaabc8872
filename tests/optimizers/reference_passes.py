"""Row-at-a-time reference implementations of the planner-side passes.

The four passes that scan a FROM entry and apply its local predicates
outside any job — ``sketch_online``'s sketch pass, predicate transfer's
filter build, pilot-run's prefix sample and worst-order's exact count — read
stored columns through the engine's filter kernel. These are the passes as
they were before that: one re-qualified dict and one ``Predicate.evaluate``
per row, straight from the paper-level description, every sketch maintained
eagerly. Kept as the reference
``tests/optimizers/test_planner_passes.py`` pins the library to (as
``tests/engine/reference_join.py`` does for the exchange); not importable
from ``src/``.
"""

from __future__ import annotations

from repro.algebra.toolkit import alias_stats_key
from repro.engine.bloom import DEFAULT_FPP, BloomFilter, bloom_size_bytes
from repro.engine.metrics import JobMetrics
from repro.lang.ast import split_column
from repro.optimizers.pilot_run import ScaledFieldStatistics
from repro.stats.catalog import DatasetStatistics
from repro.stats.collector import StatisticsCollector
from tests.engine.datasets import partition_rows_of
from tests.stats.reference_collector import EagerFieldStatistics, pivot_rows


def _qualifies(row: dict, prefix: str, predicates, context) -> bool:
    qualified = {prefix + key: value for key, value in row.items()}
    return all(p.evaluate(qualified, context) for p in predicates)


def sketch_pass(optimizer, query, alias, session, context):
    """``SketchOnlineOptimizer._sketch_pass``: post-predicate sketches of the
    alias's join columns, collected eagerly in one pass over the partitions
    in storage order. Also returns the survivors, a list per partition, for
    the checks a state comparison cannot make (per-partition HLLs merge to
    the same registers; quantiles sit within epsilon of the exact ones)."""
    dataset = session.datasets.get(query.table(alias).dataset)
    predicates = query.predicates_for(alias)
    columns = optimizer._join_columns(query, alias)
    prefix = f"{alias}."
    fields = {name: EagerFieldStatistics(name) for name in columns}
    survivors = {name: [] for name in columns}
    qualified_rows = 0
    for partition in partition_rows_of(dataset):
        rows = [row for row in partition if _qualifies(row, prefix, predicates, context)]
        qualified_rows += len(rows)
        for name, column in pivot_rows(rows, columns).items():
            fields[name].observe_column(column)
            survivors[name].append(column)
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
    delta.scan = cost.scan(dataset.modeled_rows, dataset.schema.row_width)
    if predicates:
        delta.compute = cost.predicate_eval(dataset.modeled_rows)
    delta.stats = cost.statistics(qualified_rows * dataset.scale, len(columns))
    delta.tuples_scanned = dataset.row_count
    return entry, delta, survivors


def build_filters(query, alias, current_name, session, context, adjacency):
    """``predicate_transfer._build_filters``: one Bloom filter per join column
    over the alias's base rows (local predicates applied) or its latest
    transfer intermediate."""
    own_columns = tuple(sorted({own for _, own, _ in adjacency[alias]}))
    if not own_columns:
        return None, None
    cost = session.executor.cost
    delta = JobMetrics()
    values: dict[str, list] = {column: [] for column in own_columns}
    survivors = 0
    if current_name is None:
        dataset = session.datasets.get(query.table(alias).dataset)
        predicates = query.predicates_for(alias)
        for row in dataset.rows():
            if not _qualifies(row, f"{alias}.", predicates, context):
                continue
            survivors += 1
            for column in own_columns:
                values[column].append(row.get(split_column(column)[1]))
        delta.scan = cost.scan(dataset.modeled_rows, dataset.schema.row_width)
        if predicates:
            delta.compute = cost.predicate_eval(dataset.modeled_rows)
    else:
        dataset = session.datasets.get(current_name)
        for row in dataset.rows():
            survivors += 1
            for column in own_columns:
                values[column].append(row.get(column))
        delta.scan = cost.read_materialized(
            dataset.modeled_rows, dataset.schema.row_width
        )
    modeled_survivors = survivors * dataset.scale
    delta.compute += cost.bloom_build(modeled_survivors, len(own_columns))
    delta.tuples_scanned = dataset.row_count
    charge = bloom_size_bytes(max(1.0, modeled_survivors), DEFAULT_FPP)
    built = {
        column: BloomFilter.build(
            values[column], max(1, survivors), DEFAULT_FPP, charge_bytes=charge
        )
        for column in own_columns
    }
    return built, delta


def pilot_entry(sample_limit, query, alias, session, context):
    """``PilotRunOptimizer._pilot_entry``: prefix-scan in storage order until
    ``sample_limit`` qualifying rows; returns the sampled rows as well."""
    dataset = session.datasets.get(query.table(alias).dataset)
    predicates = query.predicates_for(alias)
    scanned = 0
    sample: list[dict] = []
    for row in dataset.rows():
        scanned += 1
        if not _qualifies(row, f"{alias}.", predicates, context):
            continue
        sample.append(row)
        if len(sample) >= sample_limit:
            break
    collector = StatisticsCollector(list(dataset.schema.field_names))
    collector.observe_rows(sample)
    total = dataset.row_count
    selectivity = len(sample) / scanned if scanned else 0.0
    scale = total / scanned if scanned else 1.0
    entry = DatasetStatistics(
        name=alias_stats_key(alias),
        row_count=max(0.0, total * selectivity),
        row_width=dataset.schema.row_width,
        fields={
            name: ScaledFieldStatistics.from_sample(stats, scale)
            for name, stats in collector.fields.items()
        },
        predicates_applied=True,
        scale=dataset.scale,
    )
    return entry, scanned, sample


def true_filtered_rows(query, alias, session, context) -> float:
    """``worst_order.true_filtered_rows``: the exact post-predicate count."""
    dataset = session.datasets.get(query.table(alias).dataset)
    predicates = query.predicates_for(alias)
    return float(
        sum(
            _qualifies(row, f"{alias}.", predicates, context)
            for row in dataset.rows()
        )
    )
