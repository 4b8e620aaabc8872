"""Edge cases across the full stack: empty data, degenerate queries, skew."""

import pytest

from repro.common.types import DataType, Schema
from repro.lang.builder import QueryBuilder
from repro.session import Session
from repro.spec import PlannerSpec
from repro.testing import evaluate_reference, rows_equal_unordered

from tests.conftest import small_cluster

ALL = ("dynamic", "cost_based", "from_order", "worst_order", "pilot_run", "ingres")


def session_with(fact_rows, dim_rows):
    session = Session(small_cluster())
    session.load(
        "f",
        Schema.of(("id", DataType.INT), ("k", DataType.INT), primary_key=("id",)),
        fact_rows,
    )
    session.load(
        "d",
        Schema.of(("d_id", DataType.INT), ("v", DataType.INT), primary_key=("d_id",)),
        dim_rows,
    )
    return session


def two_table_query(**extra):
    builder = (
        QueryBuilder()
        .select("f.id", "d.v")
        .from_table("f")
        .from_table("d")
        .join("f.k", "d.d_id")
    )
    return builder.build()


class TestEmptyInputs:
    @pytest.mark.parametrize("optimizer", ALL)
    def test_empty_fact(self, optimizer):
        session = session_with([], [{"d_id": i, "v": i} for i in range(5)])
        result = session.execute(two_table_query(), optimizer)
        session.reset_intermediates()
        assert result.rows == []

    @pytest.mark.parametrize("optimizer", ALL)
    def test_empty_dimension(self, optimizer):
        session = session_with([{"id": i, "k": i} for i in range(10)], [])
        result = session.execute(two_table_query(), optimizer)
        session.reset_intermediates()
        assert result.rows == []

    def test_filter_eliminating_everything(self):
        session = session_with(
            [{"id": i, "k": i % 3} for i in range(20)],
            [{"d_id": i, "v": i} for i in range(3)],
        )
        query = (
            QueryBuilder()
            .select("f.id")
            .from_table("f")
            .from_table("d")
            .where_eq("d.v", 999)
            .where_compare("d.v", ">", -1)
            .join("f.k", "d.d_id")
            .build()
        )
        for optimizer in ALL:
            result = session.execute(query, optimizer)
            session.reset_intermediates()
            assert result.rows == []


class TestDegenerateQueries:
    def test_single_table_no_joins_dynamic(self):
        session = session_with([{"id": i, "k": i} for i in range(10)], [])
        query = QueryBuilder().select("f.id").from_table("f").build()
        result = session.execute(query, "dynamic")
        session.reset_intermediates()
        assert len(result.rows) == 10

    def test_single_table_with_filter(self):
        session = session_with([{"id": i, "k": i % 4} for i in range(40)], [])
        query = (
            QueryBuilder()
            .select("f.id")
            .from_table("f")
            .where_eq("f.k", 1)
            .build()
        )
        result = session.execute(query, "dynamic")
        session.reset_intermediates()
        assert len(result.rows) == 10


class TestSkew:
    def test_extreme_key_skew_still_correct(self):
        # 90% of fact rows share one join key: partitions are imbalanced but
        # results must be exact
        fact = [{"id": i, "k": 0 if i % 10 else i % 3} for i in range(200)]
        dims = [{"d_id": i, "v": i} for i in range(3)]
        session = session_with(fact, dims)
        query = two_table_query()
        reference = evaluate_reference(query, session)
        for optimizer in ("dynamic", "cost_based", "worst_order"):
            result = session.execute(query, optimizer)
            session.reset_intermediates()
            assert rows_equal_unordered(result.rows, reference)

    def test_all_rows_one_key(self):
        fact = [{"id": i, "k": 7} for i in range(50)]
        dims = [{"d_id": 7, "v": 1}]
        session = session_with(fact, dims)
        result = session.execute(two_table_query(), "dynamic")
        session.reset_intermediates()
        assert len(result.rows) == 50


class TestSelfJoinAliases:
    def test_same_dataset_twice(self):
        session = Session(small_cluster())
        session.load(
            "people",
            Schema.of(
                ("p_id", DataType.INT),
                ("manager", DataType.INT),
                primary_key=("p_id",),
            ),
            [{"p_id": i, "manager": i // 3} for i in range(30)],
        )
        query = (
            QueryBuilder()
            .select("e.p_id", "m.p_id")
            .from_table("people", "e")
            .from_table("people", "m")
            .join("e.manager", "m.p_id")
            .build()
        )
        reference = evaluate_reference(query, session)
        for optimizer in ("dynamic", "cost_based"):
            result = session.execute(query, optimizer)
            session.reset_intermediates()
            assert rows_equal_unordered(result.rows, reference)


class TestMixedTypeJoinKeys:
    """An INT key equal to a DOUBLE key joins (SQL: ``1 = 1.0``).

    ``stable_hash(1) != stable_hash(1.0)``, so a join that only meets rows
    inside one hash partition loses every pair whose two slots differ: until
    PR 17 the first shape returned 10 of 400 rows on the default 40-partition
    cluster and the last 5 of 200. ``scale=1e6`` puts both inputs over the
    broadcast budget, so the planner picks the hash join in every shape.
    """

    A_ROWS = [{"k": i, "x": i} for i in range(200)]
    B_ROWS = [{"id": i, "fk": float(i % 200)} for i in range(400)]

    def _session(self, float_b_id=False):
        session = Session(small_cluster())
        session.load(
            "a",
            Schema.of(("k", DataType.INT), ("x", DataType.INT), primary_key=("k",)),
            self.A_ROWS,
            scale=1e6,
        )
        b_id, cast = (DataType.DOUBLE, float) if float_b_id else (DataType.INT, int)
        session.load(
            "b",
            Schema.of(("id", b_id), ("fk", DataType.DOUBLE), primary_key=("id",)),
            [{**row, "id": cast(row["id"])} for row in self.B_ROWS],
            scale=1e6,
        )
        return session

    def _check(self, session, left, right, expected_rows):
        query = (
            QueryBuilder()
            .select("a.k", "b.id")
            .from_table("a")
            .from_table("b")
            .join(left, right)
            .build()
        )
        reference = evaluate_reference(query, session)
        assert len(reference) == expected_rows
        for optimizer in ("dynamic", "cost_based"):
            result = session.execute(query, optimizer)
            session.reset_intermediates()
            assert "⋈ " in result.plan_description, optimizer  # plain ⋈: hash
            assert rows_equal_unordered(result.rows, reference), optimizer

    def test_one_side_moves(self):
        """``a`` sits on its key; ``b`` is re-partitioned on the DOUBLE."""
        self._check(self._session(), "a.k", "b.fk", 400)

    def test_both_sides_move(self):
        self._check(self._session(), "a.x", "b.fk", 400)

    def test_neither_side_moves(self):
        """Both inputs already partitioned on their keys, of different type:
        there is no partition-local shortcut left to get this wrong."""
        self._check(self._session(float_b_id=True), "a.k", "b.id", 200)

    @pytest.mark.parametrize(
        "planner",
        [
            PlannerSpec.of("predicate_transfer"),
            PlannerSpec.of("dynamic", pre_filter="transfer"),
        ],
        ids=["predicate_transfer", "dynamic+transfer"],
    )
    def test_bloom_pre_filter_keeps_int_equal_double(self, planner):
        """The transfer prelude ships a Bloom filter over ``a.k`` (INT) and
        probes it with ``b.fk`` (DOUBLE). Hashing ``3`` by value and ``3.0``
        by ``repr`` made the filter answer "definitely absent" for every
        matching key: 0 of 58 rows at 830624f, under both spellings. A
        pre-filter may keep too much, never too little."""
        session = Session(small_cluster())
        session.load(
            "a",
            Schema.of(("k", DataType.INT), ("x", DataType.INT), primary_key=("k",)),
            [{"k": i, "x": i % 7} for i in range(200)],
        )
        session.load(
            "b",
            Schema.of(("id", DataType.INT), ("fk", DataType.DOUBLE), primary_key=("id",)),
            self.B_ROWS,
        )
        query = (
            QueryBuilder()
            .select("a.k", "b.id")
            .from_table("a")
            .from_table("b")
            .join("a.k", "b.fk")
            .where_eq("a.x", 3)
            .build()
        )
        reference = evaluate_reference(query, session)
        assert len(reference) == 58
        assert rows_equal_unordered(session.execute(query, planner).rows, reference)
