"""PushDownPredicateRule: carve out single-variable predicate queries.

Section 5.1: datasets with multiple local predicates or at least one complex
predicate are "wrapped around single variable queries" (the INGRES
decomposition); the SELECT clause keeps only "attributes that participate in
the remaining query (i.e in the projection list, in join predicates, or in
any other clause of the main query)". This module builds those subqueries and
decides which FROM entries qualify.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.ast import Predicate, Query, TableRef


@dataclass(frozen=True)
class PushdownCandidate:
    """One FROM entry whose predicates should be pre-executed."""

    table: TableRef
    predicates: tuple[Predicate, ...]
    keep_columns: tuple[str, ...]


def needs_pushdown(predicates: tuple[Predicate, ...]) -> bool:
    """Algorithm 1 lines 6-9: more than one predicate, or any complex one."""
    if len(predicates) >= 2:
        return True
    return any(p.is_complex for p in predicates)


def surviving_columns(query: Query, alias_columns: set[str]) -> tuple[str, ...]:
    """Columns of one FROM entry still referenced by the rest of the query."""
    referenced: list[str] = []
    seen = set()

    def keep(column: str) -> None:
        if column in alias_columns and column not in seen:
            seen.add(column)
            referenced.append(column)

    for column in query.select:
        keep(column)
    for condition in query.joins:
        keep(condition.left)
        keep(condition.right)
    for column in query.group_by:
        keep(column)
    for column in query.order_by:
        keep(column)
    return tuple(referenced)


def pushdown_candidates(
    query: Query,
    columns_of_alias: dict[str, set[str]],
) -> list[PushdownCandidate]:
    """All FROM entries qualifying for predicate pre-execution.

    ``columns_of_alias`` maps each alias to the qualified columns it
    provides (from the column resolver).
    """
    candidates = []
    for table in query.tables:
        predicates = query.predicates_for(table.alias)
        if not predicates or not needs_pushdown(predicates):
            continue
        keep = surviving_columns(query, columns_of_alias[table.alias])
        candidates.append(PushdownCandidate(table, predicates, keep))
    return candidates
