"""Predicate push-down execution (Algorithm 1 lines 6-9 and 20-23).

Datasets with multiple local predicates or at least one complex (UDF /
parameterized) predicate are wrapped in single-variable select-project
queries and executed *first*. Each produces a materialized post-predicate
dataset plus exact statistics, and the main query is rewritten to reference
the materialization (Section 5.1's Q1 -> Q1').

Push-down jobs are independent of each other, so :func:`pushdown_stages`
yields them as one *group* of requests built by the
:class:`~repro.engine.scheduler.request.QueryRun` it is handed, each tagged
with the base dataset it scans (``batch_key``). The job scheduler may merge
same-dataset scans — from this query or a concurrently admitted one — into a
single cluster job whose scan cost is shared; a blocking run launches them
one by one. The filtered datasets' statistics land in the run's working
catalog.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.algebra.jobgen import build_pushdown_job
from repro.algebra.rules.pushdown import pushdown_candidates
from repro.core.reconstruction import replace_filtered_table
from repro.engine.scheduler.request import QueryRun, Stages
from repro.lang.ast import ParameterPredicate, Predicate, Query
from repro.lang.binding import ColumnResolver
from repro.stats.estimation import filtered_cardinality

if TYPE_CHECKING:
    from repro.session import Session


@dataclass
class PushdownOutcome:
    """Result of executing all qualifying push-down subqueries."""

    query: Query
    executed_aliases: list[str]
    intermediates: dict[str, str]  # alias -> intermediate dataset name


def intermediate_name_for(alias: str, namespace: str = "") -> str:
    return f"{namespace}__filtered_{alias}"


def bound_parameters(
    predicates: Iterable[Predicate], parameters: dict | None
) -> list[tuple[str, str]]:
    """The sorted ``(name, repr(value))`` bindings ``predicates`` read.

    Only a :class:`~repro.lang.ast.ParameterPredicate` reads a query
    parameter, so a cache token binds those and no other: a push-down over a
    dimension keeps its identity while the fact table's window moves.
    """
    read = {p.parameter for p in predicates if isinstance(p, ParameterPredicate)}
    return sorted((k, repr(v)) for k, v in (parameters or {}).items() if k in read)


def pushdown_cache_token(candidate, stats_columns, parameters) -> str:
    """Namespace-free identity of one push-down materialization.

    Two requests with equal tokens perform byte-identical work over the same
    base dataset (same predicates, projection, sketched columns, and values
    of the parameters those predicates read), so the service's intermediate
    cache may replay one's output for the other. The query's namespace is
    excluded — the replay re-registers under the requesting query's names.
    The alias is not: the predicates and kept columns are alias-qualified,
    and so are the intermediate's physical columns, so a replay under
    another alias would hand the rewritten query columns it cannot resolve.
    """
    bound = bound_parameters(candidate.predicates, parameters)
    return "|".join(
        [
            "pushdown",
            candidate.table.dataset,
            repr(candidate.predicates),
            repr(tuple(candidate.keep_columns)),
            repr(tuple(stats_columns)),
            repr(bound),
        ]
    )


def join_columns_of(query: Query) -> set[str]:
    columns = set()
    for condition in query.joins:
        columns.add(condition.left)
        columns.add(condition.right)
    return columns


def pushdown_stages(run: QueryRun, session: Session) -> Stages:
    """Yield every qualifying single-variable query as one request group.

    Statistics for the filtered datasets are registered into the run's
    working catalog under the intermediate's name (the paper "updates the
    statistics attached to the base unfiltered datasets to depict the new
    cardinalities" — here the rewrite points the alias at the new entry).
    Returns the :class:`PushdownOutcome` with the rewritten query.
    """
    query = run.query
    resolver = ColumnResolver(query, session.datasets.schema_lookup)
    columns_of_alias = {alias: resolver.columns_of(alias) for alias in query.aliases}
    candidates = pushdown_candidates(query, columns_of_alias)
    join_columns = join_columns_of(query)

    requests = []
    current = query
    intermediates: dict[str, str] = {}
    for candidate in candidates:
        alias = candidate.table.alias
        name = intermediate_name_for(alias, run.namespace)
        stats_columns = tuple(
            c for c in candidate.keep_columns if c in join_columns
        )
        job = build_pushdown_job(
            candidate.table,
            candidate.predicates,
            candidate.keep_columns,
            name,
            stats_columns,
        )
        # Push-downs are re-optimization points: record the estimate the
        # static statistics would have produced against the measured
        # post-predicate cardinality (all in modeled full-scale rows).
        base_stats = run.statistics.get(candidate.table.dataset)
        requests.append(
            run.job(
                f"pushdown:{alias}",
                job,
                kind="pushdown",
                estimate=(
                    f"σ({alias})",
                    filtered_cardinality(base_stats, candidate.predicates)
                    * base_stats.scale,
                ),
                batch_key=candidate.table.dataset,
                cache_token=pushdown_cache_token(
                    candidate, stats_columns, query.parameters
                ),
            )
        )
        current = replace_filtered_table(current, alias, name)
        intermediates[alias] = name
    if requests:
        yield requests
    return PushdownOutcome(current, list(intermediates), intermediates)
