"""Cardinality and selectivity estimation.

Implements the estimation machinery of Sections 4 and 5:

- **Formula (1)** (Selinger):
  ``|A ⋈k B| = S(A) * S(B) / max(U(A.k), U(B.k))`` with S the qualified row
  count immediately before the join and U the HyperLogLog distinct count. For
  multi-conjunct joins the ``1/max(U, U)`` factor is applied per conjunct.
- **Histogram selectivity** for single fixed-value predicates.
- **Default selectivity factors** for complex predicates (UDF /
  parameterized): 1/10 for equalities, 1/3 for inequalities [Selinger 79] —
  the fallback the *static* baseline is forced into.
- **Independence-assumption multiplication** for multiple predicates — the
  traditional (and, under correlation, misleading) approach the dynamic
  optimizer replaces with predicate push-down execution.
"""

from __future__ import annotations

from repro.lang.ast import (
    BetweenPredicate,
    ComparisonPredicate,
    ParameterPredicate,
    Predicate,
    UdfPredicate,
    split_column,
)
from repro.stats.catalog import DatasetStatistics
from repro.stats.collector import FieldStatistics

#: Default selectivity for equality predicates the optimizer cannot estimate.
DEFAULT_EQUALITY_SELECTIVITY = 1.0 / 10.0
#: Default selectivity for range/inequality predicates it cannot estimate.
DEFAULT_INEQUALITY_SELECTIVITY = 1.0 / 3.0

_EQUALITY_OPS = {"=", "!="}


def default_selectivity(op: str) -> float:
    """Selinger default factor for an operator of unknown selectivity."""
    if op in _EQUALITY_OPS:
        return DEFAULT_EQUALITY_SELECTIVITY
    return DEFAULT_INEQUALITY_SELECTIVITY


def resolve_field(stats: DatasetStatistics, column: str) -> FieldStatistics | None:
    """Find field statistics for a qualified column.

    Base datasets sketch plain field names; intermediates sketch qualified
    names. Try the qualified name first, then the bare field name.
    """
    found = stats.field_statistics(column)
    if found is not None:
        return found
    _, bare = split_column(column)
    return stats.field_statistics(bare)


def predicate_selectivity(stats: DatasetStatistics, predicate: Predicate) -> float:
    """Estimated selectivity of one local predicate against one dataset.

    Complex predicates return the default factor; estimable predicates use
    the equi-height histogram when one exists, else the HLL distinct count
    (for equality), else the default factor.
    """
    if isinstance(predicate, (UdfPredicate, ParameterPredicate)):
        return default_selectivity(getattr(predicate, "op", "="))
    if isinstance(predicate, BetweenPredicate):
        field = resolve_field(stats, predicate.column)
        histogram = field.histogram() if field is not None else None
        if histogram is None:
            return DEFAULT_INEQUALITY_SELECTIVITY
        low = _numeric(predicate.low)
        high = _numeric(predicate.high)
        if low is None or high is None:
            return DEFAULT_INEQUALITY_SELECTIVITY
        return _clamp(histogram.selectivity_range(low, high))
    if isinstance(predicate, ComparisonPredicate):
        field = resolve_field(stats, predicate.column)
        if field is None:
            return default_selectivity(predicate.op)
        value = _numeric(predicate.value)
        if value is None:
            # Non-numeric equality: 1/U from the distinct sketch.
            if predicate.op == "=" and len(field.distinct) > 0:
                return _clamp(1.0 / field.distinct_count)
            return default_selectivity(predicate.op)
        histogram = field.histogram()
        if histogram is None:
            if predicate.op == "=" and len(field.distinct) > 0:
                return _clamp(1.0 / field.distinct_count)
            return default_selectivity(predicate.op)
        return _clamp(histogram.selectivity_comparison(predicate.op, value))
    return DEFAULT_INEQUALITY_SELECTIVITY


def conjunctive_selectivity(stats: DatasetStatistics, predicates) -> float:
    """Independence-assumption product of individual selectivities.

    "Traditional optimizers assume predicate independence and thus the total
    selectivity is computed by multiplying the individual ones. This approach
    can easily lead to inaccurate estimations" (Section 5.1). The dynamic
    optimizer avoids calling this for multi-predicate datasets by executing
    the predicates instead.
    """
    selectivity = 1.0
    for predicate in predicates:
        selectivity *= predicate_selectivity(stats, predicate)
    return _clamp(selectivity)


def filtered_cardinality(stats: DatasetStatistics, predicates) -> float:
    """Estimated qualified-row count after applying ``predicates``.

    Entries flagged ``predicates_applied`` (pilot-run per-alias samples)
    already incorporate the local predicates, so they pass through.
    """
    if stats.predicates_applied:
        return max(0.0, stats.row_count)
    return max(0.0, stats.row_count * conjunctive_selectivity(stats, predicates))


def join_cardinality(
    left: DatasetStatistics,
    right: DatasetStatistics,
    conditions,
    left_rows: float | None = None,
    right_rows: float | None = None,
) -> float:
    """Formula (1), generalized to multi-conjunct equi-joins.

    ``conditions`` is an iterable of :class:`~repro.lang.ast.JoinCondition`
    whose ``left``/``right`` columns belong to ``left``/``right`` datasets in
    some order (the caller guarantees orientation). ``left_rows``/
    ``right_rows`` override S(A)/S(B) when local predicates have already been
    accounted for.

    For multi-conjunct joins only the *most selective single conjunct* (the
    largest distinct count) divides the product. Composite join keys are
    almost always correlated (TPC-DS ties ticket_number, item and customer
    together), so multiplying the per-conjunct factors under independence
    would collapse the estimate toward zero and make fact-to-fact joins look
    free — the estimation trap the dynamic planner must not fall into.
    """
    size_left = left.row_count if left_rows is None else left_rows
    size_right = right.row_count if right_rows is None else right_rows
    estimate = size_left * size_right
    best_divisor = 1.0
    for condition in conditions:
        u_left = _distinct_for(left, condition.left, condition.right)
        u_right = _distinct_for(right, condition.left, condition.right)
        best_divisor = max(best_divisor, u_left, u_right)
    return max(0.0, estimate / best_divisor)


def _distinct_for(stats: DatasetStatistics, *candidate_columns: str) -> float:
    """U(x.k) for whichever of the candidate columns this dataset holds."""
    for column in candidate_columns:
        field = resolve_field(stats, column)
        if field is not None and len(field.distinct) > 0:
            return min(field.distinct_count, max(1.0, stats.row_count))
    return max(1.0, stats.row_count)


def _numeric(value: object) -> float | None:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _clamp(fraction: float) -> float:
    return max(0.0, min(1.0, fraction))
