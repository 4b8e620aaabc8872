"""Dataset ingestion with upfront statistics registration.

The paper exploits "AsterixDB's LSM ingestion process to get initial
statistics for base datasets" (Section 2): quantile and HyperLogLog sketches
for every field that may participate in a query, available before — and
outside — query execution time. ``load_dataset`` keeps that contract at the
cost of what is read: it partitions the rows, stores them partition after
partition with the partitions' bounds, registers the dataset, and registers
statistics that build each field's sketches from the ingested rows
when first read (DESIGN.md §5c) — the state collecting while loading leaves.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, chain

from repro.cluster.config import ClusterConfig
from repro.common.types import Schema
from repro.stats.catalog import StatisticsCatalog
from repro.stats.collector import StatisticsCollector
from repro.storage.catalog import DatasetCatalog
from repro.storage.dataset import Dataset, partition_rows


def load_dataset(
    name: str,
    schema: Schema,
    rows: Sequence[dict],
    cluster: ClusterConfig,
    datasets: DatasetCatalog,
    statistics: StatisticsCatalog,
    scale: float = 1.0,
    replace: bool = False,
    precollected: dict[str, dict] | None = None,
) -> Dataset:
    """Load ``rows`` as a new base dataset and register its statistics.

    ``rows`` is walked more than once; a tuple (``Session.load`` passes one)
    is what the statistics replay from, without a copy. Every field in the
    schema is tracked (Section 4: "we collect these types of statistics for
    every field of a dataset that may participate in any query"). ``scale``
    is the modeled full-scale rows per stored row (DESIGN.md §2).
    ``replace`` permits re-ingesting an existing name
    (bumping its catalog version, which invalidates cached results that
    depended on it). ``precollected`` maps field names to persisted halves
    (:meth:`~repro.stats.collector.FieldStatistics.built_state`), each
    adopted onto the fresh entry in place of building it from the rows — the
    service's sketch store restores persisted sketches this way, which is
    only sound because the store keys them by dataset *content*.
    """
    partition_key = schema.primary_key[0] if schema.primary_key else None
    partitions = partition_rows(rows, cluster.partitions, partition_key)
    dataset = Dataset(
        name=name,
        schema=schema,
        bounds=list(accumulate(map(len, partitions), initial=0)),
        row_dicts=list(chain.from_iterable(partitions)),
        partition_key=partition_key,
        scale=scale,
        pool=datasets.pool,
    )
    if replace:
        datasets.replace(dataset)
    else:
        datasets.register(dataset)

    collector = StatisticsCollector(list(schema.field_names))
    collector.observe_rows(rows)
    for field_name, state in (precollected or {}).items():
        if field_name in collector.fields:
            collector.fields[field_name].adopt_state(state)
    statistics.register_from_collector(name, collector, schema.row_width, scale)
    return dataset


def register_intermediate(
    name: str,
    schema: Schema,
    columns: dict[str, tuple],
    bounds: list[int],
    partition_key: str | None,
    datasets: DatasetCatalog,
    scale: float = 1.0,
) -> Dataset:
    """Register a materialized re-optimization-point result.

    ``columns`` are the flat column tuples a Sink wrote (or a cache
    replays), stored as they are; partition ``p`` holds rows
    ``bounds[p]:bounds[p + 1]`` of each.

    Statistics are *not* collected here: the Sink operator collects them
    online during the producing job (and only when another re-optimization
    will happen), so registration stays cheap.
    """
    dataset = Dataset(
        name=name,
        schema=schema,
        bounds=bounds,
        columns=columns,
        partition_key=partition_key,
        is_intermediate=True,
        scale=scale,
    )
    datasets.replace(dataset)
    return dataset
