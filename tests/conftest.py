"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import bisect
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.common import rng

# Property-test budgets: CI runs a capped profile (select it with
# `pytest --hypothesis-profile=ci`); the default stays at hypothesis's
# stock example count for local runs.
settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("thorough", max_examples=500)
from repro.common.types import DataType, Schema
from repro.lang.builder import QueryBuilder
from repro.session import Session


def small_cluster() -> ClusterConfig:
    """A 2x2 cluster keeps tests fast while still exercising partitioning."""
    return ClusterConfig(nodes=2, cores_per_node=2, broadcast_budget_bytes=40e6)


FACT_SCHEMA = Schema.of(
    ("f_id", DataType.INT),
    ("f_a", DataType.INT),
    ("f_b", DataType.INT),
    ("f_c", DataType.INT),
    ("f_val", DataType.INT),
    primary_key=("f_id",),
)


def dim_schema(prefix: str) -> Schema:
    return Schema.of(
        (f"{prefix}_id", DataType.INT),
        (f"{prefix}_attr", DataType.INT),
        primary_key=(f"{prefix}_id",),
    )


def load_star_data(
    target, fact_rows: int = 2000, seed: int = 7, fact_scale: float = 10_000.0
) -> None:
    """Load the star universe into anything with ``.load`` (Session/service)."""
    rng = random.Random(seed)
    target.load(
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
            for i in range(fact_rows)
        ],
        scale=fact_scale,
    )
    target.load(
        "da", dim_schema("a"), [{"a_id": i, "a_attr": i % 7} for i in range(50)]
    )
    target.load(
        "db", dim_schema("b"), [{"b_id": i, "b_attr": i % 5} for i in range(40)]
    )
    target.load(
        "dc", dim_schema("c"), [{"c_id": i, "c_attr": i % 3} for i in range(30)]
    )


def build_star_session(
    fact_rows: int = 2000, seed: int = 7, cluster: ClusterConfig | None = None
) -> Session:
    """A fact table with three dimensions — the workhorse test universe."""
    session = Session(cluster or small_cluster())
    load_star_data(session, fact_rows=fact_rows, seed=seed)
    return session


def submit_strategy(scheduler, query, strategy, session, **options):
    """Queue ``strategy``'s run of ``query`` on ``scheduler``, the way
    ``Session.submit`` does: its stage generator under the handle's namespace."""
    return scheduler.submit(
        query,
        lambda namespace: strategy.stages(query, session, namespace=namespace),
        session,
        **options,
    )


def star_query(**kwargs):
    """Three-join star query with a mix of predicate kinds."""
    builder = (
        QueryBuilder()
        .select("fact.f_val", "da.a_attr")
        .from_table("fact")
        .from_table("da")
        .from_table("db")
        .from_table("dc")
        .where_eq("da.a_attr", 2)
        .where_udf("mymod10", "db.b_attr", "=", 1)
        .where_compare("dc.c_attr", ">=", 1)
        .where_compare("dc.c_attr", "<=", 1)
        .join("fact.f_a", "da.a_id")
        .join("fact.f_b", "db.b_id")
        .join("fact.f_c", "dc.c_id")
    )
    for key, value in kwargs.items():
        getattr(builder, key)(value)
    return builder.build()


@pytest.fixture
def star_session():
    return build_star_session()


@pytest.fixture
def star():
    return build_star_session(), star_query()


# -- sketch-collection property inputs ---------------------------------------------

#: One value as the collectors may see it. The small pools make the
#: collisions that matter likely: ``1``/``1.0``/``True`` and ``0.0``/``-0.0``
#: compare equal but hash apart, NaNs the reverse, and ints beyond 2**127
#: leave ``stable_hash``'s fixed-width encoding.
_MIXED_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-(2**200), 2**200),
    st.sampled_from(
        [2**127 - 1, 2**127, -(2**127), -(2**127) - 1, 0.0, -0.0, 1.0, 2.0, -3.0,
         float("nan"), float("inf"), float("-inf")]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.tuples(st.integers(-1, 1), st.sampled_from([1, 1.0, True, "1", None])),
)  # fmt: skip


@st.composite
def mixed_column_batches(draw) -> list[list]:
    """A column of mixed values, cut into batches of arbitrary sizes.

    Lengths straddle GK's 100-value insert buffer; a batch may be empty.
    """
    column = draw(st.lists(_MIXED_VALUE, max_size=260))
    cuts = sorted(draw(st.lists(st.integers(0, len(column)), max_size=6)))
    edges = [0, *cuts, len(column)]
    return [column[a:b] for a, b in zip(edges, edges[1:])]


@st.composite
def mixed_sparse_rows(draw) -> tuple[tuple[str, ...], tuple[str, ...], list[dict]]:
    """``(schema fields, stored fields, rows)``: rows of mixed values over a
    subset of a schema's fields — possibly none of them, possibly of a
    zero-field schema — every row free to miss any of its keys."""
    fields = draw(st.lists(st.sampled_from("abcde"), unique=True, max_size=4))
    stored = draw(st.lists(st.sampled_from(fields), unique=True)) if fields else []
    row = st.fixed_dictionaries({}, optional={name: _MIXED_VALUE for name in stored})
    return tuple(fields), tuple(stored), draw(st.lists(row, max_size=40))


def quantile_rank_gap(sketch, ordered: list, q: float) -> float:
    """Ranks between ``sketch.quantile(q)`` and rank ``q * (n - 1)`` of the
    sorted stream ``ordered``; 0 anywhere inside the estimate's run of ties."""
    estimate = sketch.quantile(q)
    target = q * (len(ordered) - 1)
    return max(
        bisect.bisect_left(ordered, estimate) - target,
        target - bisect.bisect_right(ordered, estimate),
        0,
    )


def count_digests(patch: pytest.MonkeyPatch, digests: list) -> None:
    """Append to ``digests`` at every stable-hash digest, through the kernel's
    one digest seam: each digest copies ``rng._BLAKE2B_8`` exactly once."""
    prepared = rng._BLAKE2B_8

    class Counting:
        def copy(self):
            digests.append(1)
            return prepared.copy()

    patch.setattr(rng, "_BLAKE2B_8", Counting())


def same_state(left: dict, right: dict) -> bool:
    """Sketch ``to_state()`` equality that keeps ``0.0``/``-0.0`` apart and
    lets NaN equal itself (both are what ``repr`` shows)."""
    return repr(left) == repr(right)


class _LoadTap:
    """Stands in for a session in ``WorkloadSpec.load_into``: keeps the calls."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def load(self, name, schema, rows, scale=1.0, replace=False):
        self.calls.append((name, schema, rows, scale))


@pytest.fixture(scope="session")
def suite_universes() -> dict[str, list[tuple]]:
    """universe -> ``(name, schema, rows, scale)`` per table, at SF 10, seed 42."""
    from repro.workloads import get_workload

    universes = {}
    for universe in ("tpch", "tpcds", "job"):
        tap = _LoadTap()
        get_workload(universe, 10, 42).load_into(tap)
        universes[universe] = tap.calls
    return universes


@pytest.fixture(scope="session")
def suite_tables(suite_universes) -> list[tuple]:
    """The 21 suite tables of :func:`suite_universes`, flattened."""
    return [call for calls in suite_universes.values() for call in calls]
