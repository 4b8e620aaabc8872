"""Query model: the SQL++-like internal representation.

A :class:`Query` mirrors the paper's working form of a query: a projection
list, a FROM clause (ordered table references — the order matters because the
default AsterixDB optimizer joins datasets "in the order they appear in it"),
local selection predicates, and equi-join conditions from the WHERE clause.

Column naming convention
------------------------
All columns are *qualified*: ``"alias.field"``. A base dataset scanned under
alias ``d1`` produces rows keyed ``d1.d_date_sk`` etc., so the same dataset
can appear several times in one query (TPC-DS Q17 uses ``date_dim`` three
times). Intermediate datasets created at re-optimization points keep the
qualified names as their physical column names, which is what makes query
reconstruction (Section 5.4) a pure FROM/WHERE rewrite: every column
reference in the remaining query stays valid verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import QueryError
from repro.lang.udf import UdfRegistry, apply_udf

# -- predicates ------------------------------------------------------------------


COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


def split_column(qualified: str) -> tuple[str, str]:
    """Split ``"alias.field"`` into ``(alias, field)``."""
    alias, sep, name = qualified.partition(".")
    if not sep or not alias or not name:
        raise QueryError(f"column reference {qualified!r} must be 'alias.field'")
    return alias, name


@dataclass(frozen=True)
class Predicate:
    """Base class for local (single-dataset) selection predicates."""

    column: str  # qualified "alias.field"

    @property
    def alias(self) -> str:
        return split_column(self.column)[0]

    @property
    def is_complex(self) -> bool:
        """Complex predicates (UDF / parameterized) defeat static estimation."""
        return False

    def evaluate(self, row: dict, context: EvaluationContext) -> bool:
        raise NotImplementedError

    def evaluate_batch(self, values: list, context: EvaluationContext) -> list[bool]:
        """Vectorized form: one boolean per value of this predicate's column.

        Must decide exactly as ``evaluate`` does on ``{column: value}`` rows —
        the engine's filter kernels call this form, the reference evaluator
        (``repro.testing``) the per-row one.
        Subclasses override with loops specialized per operator; this
        fallback delegates to ``evaluate`` row by row.
        """
        return [self.evaluate({self.column: v}, context) for v in values]

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ComparisonPredicate(Predicate):
    """Fixed-value comparison, e.g. ``d1.d_year = 2001``.

    Estimable from an equi-height histogram on the base dataset.
    """

    op: str = "="
    value: object = None

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QueryError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, row: dict, context: EvaluationContext) -> bool:
        return _compare(row.get(self.column), self.op, self.value)

    def evaluate_batch(self, values: list, context: EvaluationContext) -> list[bool]:
        return _compare_batch(values, self.op, self.value)

    def describe(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


@dataclass(frozen=True)
class BetweenPredicate(Predicate):
    """Range predicate, e.g. ``d2.d_moy BETWEEN 4 AND 10``."""

    low: object = None
    high: object = None

    def evaluate(self, row: dict, context: EvaluationContext) -> bool:
        value = row.get(self.column)
        if value is None:
            return False
        return self.low <= value <= self.high

    def evaluate_batch(self, values: list, context: EvaluationContext) -> list[bool]:
        low, high = self.low, self.high
        return [v is not None and low <= v <= high for v in values]

    def describe(self) -> str:
        return f"{self.column} BETWEEN {self.low!r} AND {self.high!r}"


@dataclass(frozen=True)
class ParameterPredicate(Predicate):
    """Comparison against a query parameter, e.g. ``d1.d_moy = $m``.

    The optimizer cannot see the parameter's value ("in the absence of values
    for parameters ... default values are used", Section 5.1); at execution
    time the value is resolved from the query's parameter bindings.
    """

    op: str = "="
    parameter: str = ""

    @property
    def is_complex(self) -> bool:
        return True

    def evaluate(self, row: dict, context: EvaluationContext) -> bool:
        if self.parameter not in context.parameters:
            raise QueryError(f"unbound query parameter ${self.parameter}")
        return _compare(row.get(self.column), self.op, context.parameters[self.parameter])

    def evaluate_batch(self, values: list, context: EvaluationContext) -> list[bool]:
        if not values:
            # ``evaluate`` only notices an unbound parameter when some row
            # actually reaches this predicate; match that.
            return []
        if self.parameter not in context.parameters:
            raise QueryError(f"unbound query parameter ${self.parameter}")
        return _compare_batch(values, self.op, context.parameters[self.parameter])

    def describe(self) -> str:
        return f"{self.column} {self.op} ${self.parameter}"


@dataclass(frozen=True)
class UdfPredicate(Predicate):
    """UDF-wrapped comparison, e.g. ``myyear(o.o_orderdate) = 1998``.

    ``udf`` names a function in the :class:`~repro.lang.udf.UdfRegistry`; the
    predicate holds when ``udf(row[column]) op value``. Optimizers without
    runtime feedback fall back to default selectivity factors [Selinger 79].
    """

    udf: str = ""
    op: str = "="
    value: object = None

    @property
    def is_complex(self) -> bool:
        return True

    def evaluate(self, row: dict, context: EvaluationContext) -> bool:
        fn = context.udfs.get(self.udf)
        return _compare(fn(row.get(self.column)), self.op, self.value)

    def evaluate_batch(self, values: list, context: EvaluationContext) -> list[bool]:
        fn = context.udfs.get(self.udf)
        # The UDF answers every value, nulls included, exactly as
        # ``evaluate`` does (a UDF that rejects None raises in both forms).
        return _compare_batch(apply_udf(fn, values), self.op, self.value)

    def describe(self) -> str:
        return f"{self.udf}({self.column}) {self.op} {self.value!r}"


def _compare(left: object, op: str, right: object) -> bool:
    if left is None:
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise QueryError(f"unsupported comparison operator {op!r}")


def _compare_batch(values: list, op: str, right: object) -> list[bool]:
    """``_compare`` over a column, with the operator dispatched once."""
    if op == "=":
        return [v is not None and v == right for v in values]
    if op == "!=":
        return [v is not None and v != right for v in values]
    if op == "<":
        return [v is not None and v < right for v in values]
    if op == "<=":
        return [v is not None and v <= right for v in values]
    if op == ">":
        return [v is not None and v > right for v in values]
    if op == ">=":
        return [v is not None and v >= right for v in values]
    raise QueryError(f"unsupported comparison operator {op!r}")


@dataclass(frozen=True)
class EvaluationContext:
    """Runtime bindings needed to evaluate complex predicates."""

    parameters: dict = field(default_factory=dict)
    udfs: UdfRegistry | None = None


# -- joins -----------------------------------------------------------------------


@dataclass(frozen=True)
class JoinCondition:
    """One equi-join conjunct: ``left == right`` (both qualified columns)."""

    left: str
    right: str

    def aliases(self) -> tuple[str, str]:
        return split_column(self.left)[0], split_column(self.right)[0]

    def describe(self) -> str:
        return f"{self.left} = {self.right}"


# -- FROM-clause entries -----------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    """One FROM-clause entry: a dataset scanned under an alias.

    ``broadcast_hint`` models AsterixDB's user join hints: the best-order
    baseline uses them to get broadcast joins without runtime statistics.
    """

    dataset: str
    alias: str
    broadcast_hint: bool = False


# -- the query -------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """An executable multi-join query over the simulated BDMS.

    Group-by / order-by / limit tails are carried along and evaluated after
    all joins, matching Section 6.4 ("for now they are evaluated after all
    the joins and selections have been completed").
    """

    select: tuple[str, ...]
    tables: tuple[TableRef, ...]
    predicates: tuple[Predicate, ...] = ()
    joins: tuple[JoinCondition, ...] = ()
    group_by: tuple[str, ...] = ()
    order_by: tuple[str, ...] = ()
    limit: int | None = None
    parameters: dict = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        aliases = [t.alias for t in self.tables]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate aliases in FROM clause: {aliases}")

    # -- lookups ------------------------------------------------------------

    def table(self, alias: str) -> TableRef:
        for ref in self.tables:
            if ref.alias == alias:
                return ref
        raise QueryError(f"alias {alias!r} not in FROM clause")

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(t.alias for t in self.tables)

    def predicates_for(self, alias: str) -> tuple[Predicate, ...]:
        return tuple(p for p in self.predicates if p.alias == alias)

    def join_count(self) -> int:
        """Number of joins in the sense of Algorithm 1 (|J|).

        Joins are counted between FROM-clause entries: several conjuncts
        between the same pair of tables form a single join.
        """
        pairs = set()
        for cond in self.joins:
            pairs.add(frozenset(cond.aliases()))
        return len(pairs)

    def describe(self) -> str:
        """Human-readable SQL-ish rendering (for logs and plan dumps)."""
        lines = [
            "SELECT " + ", ".join(self.select),
            "FROM " + ", ".join(
                f"{t.dataset} AS {t.alias}" if t.dataset != t.alias else t.alias
                for t in self.tables
            ),
        ]
        clauses = [p.describe() for p in self.predicates]
        clauses += [c.describe() for c in self.joins]
        if clauses:
            lines.append("WHERE " + "\n  AND ".join(clauses))
        if self.group_by:
            lines.append("GROUP BY " + ", ".join(self.group_by))
        if self.order_by:
            lines.append("ORDER BY " + ", ".join(self.order_by))
        if self.limit is not None:
            lines.append(f"LIMIT {self.limit}")
        return "\n".join(lines)
