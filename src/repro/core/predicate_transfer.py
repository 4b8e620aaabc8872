"""Predicate transfer: Bloom-filter pre-filtering across join edges.

The paper's pre-processing phase (Algorithm 1 lines 6-9) materializes *local*
predicates only. Predicate transfer [Yang et al., "Predicate Transfer:
Efficient Pre-Filtering on Multi-Join Queries"] generalizes it: before any
join executes, every FROM entry ships a Bloom filter over each of its join
columns to its join partners, and every partner is reduced to the rows whose
keys might match. Two passes over the join graph make the reduction
transitive:

- **forward pass** — FROM entries ordered by ascending estimated
  post-predicate cardinality (most selective first, so the tightest filters
  flow outward); each entry is reduced by the filters of its already-visited
  partners, then builds filters over its own join columns;
- **backward pass** — the reverse order; each entry is reduced by the
  (by now fully reduced) filters of its later partners, and rebuilds its
  filters when an earlier partner still needs them.

Reductions are *real* jobs (Scan/Reader → Select → SemiJoinFilter → Sink)
yielded through the stage-generator protocol, so the scheduler, the cost
model, the tracer and the P001-P007 verifier all see them; filter builds are
in-process passes charged as virtual-cost requests (the pilot-run /
sketch-pass pattern). Both are built by the
:class:`~repro.engine.scheduler.request.QueryRun` the caller hands in, and
every reduce job registers measured statistics for its intermediate in that
run's working catalog, so a downstream planner — the ``predicate_transfer`` strategy's
one-shot bushy DP, or the ``dynamic`` re-optimization loop running behind the
``pre_filter="transfer"`` prelude — plans over post-transfer cardinalities.

Filters are approximate with false positives only, so each reduction keeps a
superset of the rows the later joins keep: results are byte-identical to the
unfiltered execution, only cheaper (or not — shipping and probing filters is
charged honestly, and ``bench transfer`` maps both regimes).
"""

from __future__ import annotations

from collections.abc import Generator, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.algebra.jobgen import build_transfer_job
from repro.algebra.rules.pushdown import surviving_columns
from repro.analysis.dataflow import JobDataflow, TransferSummary
from repro.core.predicate_pushdown import bound_parameters, join_columns_of
from repro.core.reconstruction import replace_filtered_table
from repro.engine import vector
from repro.engine.bloom import DEFAULT_FPP, BloomFilter, bloom_size_bytes
from repro.engine.data import scan_partitions
from repro.engine.metrics import JobMetrics
from repro.engine.scheduler.request import JobRequest, QueryRun
from repro.lang.ast import EvaluationContext, Predicate, Query, split_column
from repro.lang.binding import ColumnResolver
from repro.stats.catalog import StatisticsCatalog
from repro.stats.estimation import filtered_cardinality

if TYPE_CHECKING:
    from repro.session import Session


@dataclass
class TransferOutcome:
    """Result of one predicate-transfer prelude."""

    query: Query
    executed_aliases: list[str]
    #: alias -> its final (fully reduced) intermediate name
    intermediates: dict[str, str] = field(default_factory=dict)
    #: Bloom filters built across both passes (observability)
    filters_built: int = 0


def transfer_order(query: Query, statistics: StatisticsCatalog) -> list[str]:
    """FROM aliases by ascending estimated post-predicate cardinality.

    The most selective entries go first so their filters reduce everything
    visited after them; ties break on the alias for determinism.
    """
    keyed: list[tuple[float, str]] = []
    for table in query.tables:
        stats = statistics.get(table.dataset)
        estimate = (
            filtered_cardinality(stats, query.predicates_for(table.alias))
            * stats.scale
        )
        keyed.append((estimate, table.alias))
    return [alias for _, alias in sorted(keyed)]


def transfer_adjacency(query: Query) -> dict[str, list[tuple[str, str, str]]]:
    """Join-graph adjacency: alias -> sorted (partner, own column, partner
    column) triples, one per join condition touching the alias."""
    adjacency: dict[str, list[tuple[str, str, str]]] = {
        table.alias: [] for table in query.tables
    }
    for condition in query.joins:
        left_alias, _ = split_column(condition.left)
        right_alias, _ = split_column(condition.right)
        adjacency[left_alias].append(
            (right_alias, condition.left, condition.right)
        )
        adjacency[right_alias].append(
            (left_alias, condition.right, condition.left)
        )
    for alias in adjacency:
        adjacency[alias].sort()
    return adjacency


def transfer_cache_token(
    dataset: str,
    predicates: tuple[Predicate, ...],
    keep_columns: tuple[str, ...],
    stats_columns: tuple[str, ...],
    filters: tuple[tuple[str, BloomFilter], ...],
    parameters: dict[str, Any] | None,
) -> str:
    """Namespace-free identity of one base-dataset transfer reduction.

    Mirrors :func:`~repro.core.predicate_pushdown.pushdown_cache_token` with
    the transferred filters folded in by content fingerprint: two queries
    reducing the same base dataset under byte-identical filters (same
    partners, same filter contents) may replay each other's materialization.
    Parameters are scoped the same way, to those ``predicates`` read; a
    partner's parameters reach the reduction only through its filters.
    """
    bound = bound_parameters(predicates, parameters)
    filter_ids = ",".join(
        f"{column}:{bloom.fingerprint()}" for column, bloom in filters
    )
    return "|".join(
        [
            "transfer",
            dataset,
            repr(predicates),
            repr(tuple(keep_columns)),
            repr(tuple(stats_columns)),
            filter_ids,
            repr(bound),
        ]
    )


def _intermediate_name(alias: str, namespace: str, direction: str) -> str:
    return f"{namespace}__transfer_{direction}_{alias}"


def _gather_filters(
    alias: str,
    sources: set[str],
    adjacency: dict[str, list[tuple[str, str, str]]],
    filters: dict[str, dict[str, BloomFilter]],
) -> tuple[tuple[str, BloomFilter], ...]:
    """Applicable (own column, partner filter) pairs from ``sources``."""
    gathered: list[tuple[str, BloomFilter]] = []
    for partner, own_column, partner_column in adjacency[alias]:
        if partner not in sources:
            continue
        entry = filters.get(partner)
        if entry is None:
            continue
        bloom = entry.get(partner_column)
        if bloom is None:
            continue
        gathered.append((own_column, bloom))
    # Stable sort by probe column; adjacency order breaks ties (the sort in
    # transfer_adjacency makes that deterministic).
    gathered.sort(key=lambda item: item[0])
    return tuple(gathered)


def transfer_stages(
    run: QueryRun, session: Session, fpp: float = DEFAULT_FPP
) -> Generator[JobRequest, Any, TransferOutcome]:
    """Run the two-pass transfer schedule over ``run.query``; return the
    rewritten query.

    A stage generator in the driver protocol: reduce jobs are yielded one at
    a time (each depends on filters built from the previous jobs' outputs —
    unlike push-down there is no independent group to batch), filter builds
    are yielded as virtual-cost requests. Returns a :class:`TransferOutcome`
    whose query references the final per-alias intermediates.
    """
    query = run.query
    if len(query.tables) < 2 or not query.joins:
        return TransferOutcome(query, [])

    resolver = ColumnResolver(query, session.datasets.schema_lookup)
    columns_of_alias = {alias: resolver.columns_of(alias) for alias in query.aliases}
    join_columns = join_columns_of(query)
    keep_of = {
        alias: surviving_columns(query, columns_of_alias[alias])
        for alias in query.aliases
    }
    stats_of = {
        alias: tuple(c for c in keep_of[alias] if c in join_columns)
        for alias in query.aliases
    }

    adjacency = transfer_adjacency(query)
    order = transfer_order(query, run.statistics)
    position = {alias: index for index, alias in enumerate(order)}
    context = EvaluationContext(query.parameters, session.udfs)

    current: dict[str, str | None] = {alias: None for alias in order}
    filters: dict[str, dict[str, BloomFilter]] = {}
    outcome = TransferOutcome(query, [])

    def has_later_partners(alias: str) -> bool:
        return any(
            position[partner] > position[alias]
            for partner, _, _ in adjacency[alias]
        )

    def reduce_stage(
        alias: str, direction: str, sources: set[str]
    ) -> Iterator[JobRequest]:
        """One reduction of ``alias`` by its partners' current filters."""
        gathered = _gather_filters(alias, sources, adjacency, filters)
        if not gathered:
            return
        name = _intermediate_name(alias, run.namespace, direction)
        source_name = current[alias]
        is_intermediate = source_name is not None
        predicates = () if is_intermediate else query.predicates_for(alias)
        final_reduce = direction == "b" or not has_later_partners(alias)
        stats_columns = stats_of[alias] if final_reduce else ()
        job = build_transfer_job(
            source_name if is_intermediate else query.table(alias).dataset,
            alias,
            is_intermediate,
            predicates,
            gathered,
            keep_of[alias],
            name,
            stats_columns,
            phase=f"transfer:{alias}" if direction == "f" else f"transfer-back:{alias}",
        )
        estimate: tuple[str, float] | None = None
        if final_reduce:
            # The transfer stage is a re-optimization point: record what the
            # pre-transfer statistics predicted for this entry (local
            # predicates only) against the measured post-transfer rows.
            base_stats = run.statistics.get(query.table(alias).dataset)
            estimate = (
                f"τ({alias})",
                filtered_cardinality(base_stats, query.predicates_for(alias))
                * base_stats.scale,
            )
        cache_token: str | None = None
        batch_key: str | None = None
        if not is_intermediate:
            batch_key = query.table(alias).dataset
            cache_token = transfer_cache_token(
                batch_key,
                predicates,
                keep_of[alias],
                stats_columns,
                gathered,
                query.parameters,
            )
        yield run.job(
            job.phase,
            job,
            kind="transfer",
            estimate=estimate,
            batch_key=batch_key,
            cache_token=cache_token,
        )
        current[alias] = name
        if alias not in outcome.executed_aliases:
            outcome.executed_aliases.append(alias)

    def build_stage(alias: str) -> Iterator[JobRequest]:
        """Build (or rebuild) the alias's filters from its current rows."""
        entry, delta = _build_filters(
            query, alias, current[alias], session, context, adjacency, fpp
        )
        if entry is None:
            return
        filters[alias] = entry
        outcome.filters_built += len(entry)
        phase_name = f"transfer-build:{alias}"
        yield run.charge(phase_name, delta, kind="transfer")
        # The build pass is a virtual-cost request that never reaches the
        # launch gate; record its filter fingerprints directly so the Q006
        # build-before-probe audit sees the build precede every reduce job
        # that probes these filters.
        run.tracer.record_dataflow(
            JobDataflow(
                phase=phase_name,
                label=phase_name,
                kind="transfer",
                builds=tuple(
                    sorted(bloom.fingerprint() for bloom in entry.values())
                ),
            )
        )

    # -- forward pass ---------------------------------------------------------
    for index, alias in enumerate(order):
        yield from reduce_stage(alias, "f", set(order[:index]))
        yield from build_stage(alias)

    # -- backward pass --------------------------------------------------------
    for index in range(len(order) - 1, -1, -1):
        alias = order[index]
        before = current[alias]
        yield from reduce_stage(alias, "b", set(order[index + 1 :]))
        reduced = current[alias] != before
        if reduced and any(
            position[partner] < position[alias]
            for partner, _, _ in adjacency[alias]
        ):
            # An earlier partner's backward reduction will probe this entry's
            # filters; rebuild them over the newly reduced rows.
            yield from build_stage(alias)

    # -- rewrite --------------------------------------------------------------
    rewritten = query
    for alias in order:
        name = current[alias]
        if name is not None:
            rewritten = replace_filtered_table(rewritten, alias, name)
            outcome.intermediates[alias] = name
    outcome.query = rewritten
    # The Q006 rewiring audit: which aliases the pass reduced, and the
    # (alias, dataset) binding of every FROM entry before and after the
    # replace_filtered_table rewrite. All sorted — content-deterministic.
    run.tracer.record_dataflow(
        TransferSummary(
            reduced=tuple(sorted(outcome.intermediates)),
            intermediates=tuple(sorted(outcome.intermediates.items())),
            original_tables=tuple(
                sorted((t.alias, t.dataset) for t in query.tables)
            ),
            rewritten_tables=tuple(
                sorted((t.alias, t.dataset) for t in rewritten.tables)
            ),
        )
    )
    return outcome


def _build_filters(
    query: Query,
    alias: str,
    current_name: str | None,
    session: Any,
    context: EvaluationContext,
    adjacency: dict[str, list[tuple[str, str, str]]],
    fpp: float,
) -> tuple[dict[str, BloomFilter] | None, JobMetrics | None]:
    """One in-process filter-build pass over the alias's current rows.

    Reads either the base dataset (applying local predicates, exactly like
    the sketch pass) or the alias's latest transfer intermediate (already
    filtered). Returns the per-join-column filters plus the virtual-cost
    delta that charges the pass to the simulated clock: job launch, the
    scan/read, predicate evaluation when predicates ran, and one Bloom
    insertion per (surviving row, join column).
    """
    own_columns = tuple(
        sorted({own_column for _, own_column, _ in adjacency[alias]})
    )
    if not own_columns:
        return None, None

    cost = session.executor.cost
    delta = JobMetrics()
    delta.startup = cost.job_startup()
    delta.jobs = 1

    if current_name is None:
        dataset = session.datasets.get(query.table(alias).dataset)
        predicates: tuple[Predicate, ...] = query.predicates_for(alias)
        prefix = f"{alias}."
        delta.scan = cost.scan(dataset.modeled_rows, dataset.schema.row_width)
        if predicates:
            delta.compute = cost.predicate_eval(dataset.modeled_rows)
    else:
        dataset = session.datasets.get(current_name)
        predicates = ()
        prefix = ""
        delta.scan = cost.read_materialized(
            dataset.modeled_rows, dataset.schema.row_width
        )
    values: dict[str, list[object]] = {column: [] for column in own_columns}
    survivors = 0
    for partition in scan_partitions(dataset, prefix):
        kept, length = vector.fused_filter_project(
            partition, predicates, own_columns, context, session.executor.chunk_size
        )
        survivors += length
        for column in own_columns:
            values[column].extend(kept[column])

    modeled_survivors = survivors * dataset.scale
    delta.compute += cost.bloom_build(modeled_survivors, len(own_columns))
    delta.tuples_scanned = dataset.row_count

    charge = bloom_size_bytes(max(1.0, modeled_survivors), fpp)
    built = {
        column: BloomFilter.build(
            values[column], max(1, survivors), fpp, charge_bytes=charge
        )
        for column in own_columns
    }
    return built, delta
