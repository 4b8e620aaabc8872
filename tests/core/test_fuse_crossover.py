"""Where a re-optimization point stops paying: one star, nine modeled sizes.

The same stored rows (a fact table and three filtered dimensions — the shape
of the ``service_zipf`` workload, on its 2x2 cluster) are loaded at ``scale=``
multipliers that take the fact table from the service regime (6e6 modeled
rows) to an SF-1000-like 6e9. The query has three joins, so the loop has
exactly one re-optimization point to take or to fuse. Pinned here: ``dynamic``
returns the reference rows at every size and is never slower than the same
driver made to take every point; the cost rule fires at every size below one
crossover and at none above it; and where it fires it saves the point's job
start-up. ``python -m tests.core.test_fuse_crossover`` prints the table
EXPERIMENTS.md shows beside Figure 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.driver import DynamicOptimizer
from repro.engine.metrics import ExecutionResult
from repro.lang.builder import QueryBuilder
from repro.session import Session
from repro.testing import evaluate_reference, rows_equal_unordered
from tests.conftest import FACT_SCHEMA, dim_schema

FACT_ROWS = 2_000
#: modeled fact-table rows, service regime to SF-1000-like
SIZES = (6e6, 8e6, 1e7, 2e7, 6e7, 2e8, 6e8, 2e9, 6e9)


class EveryPoint(DynamicOptimizer):
    """``dynamic`` on the fixed schedule: the method ``ingres`` overrides."""

    def fuse_plan(self, state, toolkit, picked, keep, stats_columns):
        return None


def build_session(modeled_fact_rows: float) -> Session:
    rng = random.Random(24)
    session = Session(ClusterConfig(nodes=2, cores_per_node=2))
    session.load(
        "fact",
        FACT_SCHEMA,
        [
            {
                "f_id": i,
                "f_a": rng.randrange(50),
                "f_b": rng.randrange(40),
                "f_c": rng.randrange(30),
                "f_val": rng.randrange(1000),
            }
            for i in range(FACT_ROWS)
        ],
        scale=modeled_fact_rows / FACT_ROWS,
    )
    for prefix, rows, modulus in (("a", 50, 7), ("b", 40, 5), ("c", 30, 3)):
        session.load(
            f"d{prefix}",
            dim_schema(prefix),
            [{f"{prefix}_id": i, f"{prefix}_attr": i % modulus} for i in range(rows)],
        )
    return session


def star_query():
    """Every table is a push-down candidate (two simple predicates or a UDF)."""
    return (
        QueryBuilder()
        .select("fact.f_val", "da.a_attr")
        .from_table("fact")
        .from_table("da")
        .from_table("db")
        .from_table("dc")
        .where_compare("fact.f_val", ">=", 100)
        .where_compare("fact.f_val", "<=", 199)
        .where_compare("da.a_attr", ">=", 1)
        .where_compare("da.a_attr", "<=", 4)
        .where_udf("mymod10", "db.b_attr", "<=", 2)
        .where_compare("dc.c_attr", ">=", 1)
        .where_compare("dc.c_attr", "<=", 2)
        .join("fact.f_a", "da.a_id")
        .join("fact.f_b", "db.b_id")
        .join("fact.f_c", "dc.c_id")
        .build()
    )


@dataclass
class SizePoint:
    modeled_fact_rows: float
    every_point: ExecutionResult
    dynamic: ExecutionResult
    reference: list[dict]
    startup: float

    @property
    def fired(self) -> bool:
        return any(d.action == "fuse" for d in self.dynamic.decisions)


def run_size(modeled_fact_rows: float) -> SizePoint:
    session = build_session(modeled_fact_rows)
    query = star_query()
    every_point = EveryPoint().execute(query, session)
    session.reset_intermediates()
    dynamic = DynamicOptimizer().execute(query, session)
    session.reset_intermediates()
    return SizePoint(
        modeled_fact_rows,
        every_point,
        dynamic,
        evaluate_reference(query, session),
        session.executor.cost.job_startup(),
    )


@pytest.fixture(scope="module")
def sweep() -> list[SizePoint]:
    return [run_size(size) for size in SIZES]


class TestFuseCrossover:
    def test_the_star_is_not_degenerate(self, sweep):
        assert len(sweep) >= 6
        assert 10 < len(sweep[0].reference) < FACT_ROWS
        # three joins: one materialized point on the fixed schedule
        for point in sweep:
            assert sum(p.startswith("join:") for p in point.every_point.phases) == 1
            assert sum(p.startswith("pushdown:") for p in point.every_point.phases) == 4

    def test_reference_rows_at_every_size(self, sweep):
        for point in sweep:
            assert rows_equal_unordered(point.dynamic.rows, point.reference)
            assert rows_equal_unordered(point.every_point.rows, point.reference)

    def test_never_slower_than_the_fixed_schedule(self, sweep):
        for point in sweep:
            assert point.dynamic.seconds <= point.every_point.seconds

    def test_one_crossover(self, sweep):
        fired = [point.fired for point in sweep]
        assert fired[0] and not fired[-1]
        # fires at every size below the crossover, at none above it
        assert fired == sorted(fired, reverse=True)

    def test_a_run_the_rule_leaves_alone_is_the_fixed_schedule(self, sweep):
        for point in sweep:
            if not point.fired:
                assert point.dynamic.decisions == ()
                assert point.dynamic.phases == point.every_point.phases
                assert point.dynamic.seconds == point.every_point.seconds

    def test_service_regime_saves_the_points_startup(self, sweep):
        smallest = sweep[0]
        assert smallest.fired
        saved_jobs = smallest.every_point.metrics.jobs - smallest.dynamic.metrics.jobs
        assert saved_jobs >= 1
        assert (
            smallest.every_point.metrics.startup - smallest.dynamic.metrics.startup
            >= smallest.startup * saved_jobs
        )
        assert smallest.every_point.seconds - smallest.dynamic.seconds >= smallest.startup


def format_table(sweep: list[SizePoint]) -> str:
    lines = [
        "| fact rows (modeled) | every point (s) | `dynamic` (s) | saved | rule |",
        "|---:|---:|---:|---:|---|",
    ]
    for point in sweep:
        fixed, dynamic = point.every_point.seconds, point.dynamic.seconds
        rule = point.dynamic.decisions[0].detail if point.fired else "point taken"
        lines.append(
            f"| {point.modeled_fact_rows:.0e} | {fixed:.2f} | {dynamic:.2f} "
            f"| {100 * (fixed - dynamic) / fixed:.1f}% | {rule} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_table([run_size(size) for size in SIZES]))
