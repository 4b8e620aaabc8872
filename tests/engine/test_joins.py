"""Join operator correctness: every algorithm must equal brute force."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.common.types import DataType, Schema
from repro.engine import vector
from repro.engine.job import Job
from repro.engine.operators.joins import (
    BroadcastJoinOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    JoinAlgorithm,
)
from repro.engine.operators.scan import ScanOp
from repro.engine.operators.select import SelectOp
from repro.lang.ast import ComparisonPredicate
from repro.session import Session

from tests.conftest import small_cluster


def two_table_session(left_rows, right_rows):
    session = Session(small_cluster())
    session.load(
        "L",
        Schema.of(("lid", DataType.INT), ("lk", DataType.INT), ("lk2", DataType.INT), primary_key=("lid",)),
        left_rows,
    )
    session.load(
        "R",
        Schema.of(("rid", DataType.INT), ("rk", DataType.INT), ("rk2", DataType.INT), primary_key=("rid",)),
        right_rows,
    )
    return session


def brute_force(left_rows, right_rows, keys):
    out = []
    for l in left_rows:
        for r in right_rows:
            if all(
                l[lk] == r[rk] and l[lk] is not None for lk, rk in keys
            ):
                out.append((l["lid"], r["rid"]))
    return sorted(out)


def engine_pairs(data):
    return sorted((row["L.lid"], row["R.rid"]) for row in data.all_rows())


def random_rows(n, key_domain, seed, prefix):
    rng = random.Random(seed)
    return [
        {
            f"{prefix}id": i,
            f"{prefix}k": rng.randrange(key_domain) if rng.random() > 0.05 else None,
            f"{prefix}k2": rng.randrange(3),
        }
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def joined_session():
    left = random_rows(300, 20, 1, "l")
    right = random_rows(100, 20, 2, "r")
    return two_table_session(left, right), left, right


class TestHashJoin:
    def test_matches_brute_force(self, joined_session):
        session, left, right = joined_session
        op = HashJoinOp(ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk",), ("L.lk",))
        data, _ = session.executor.execute(Job(op))
        assert engine_pairs(data) == brute_force(left, right, [("lk", "rk")])

    def test_composite_key(self, joined_session):
        session, left, right = joined_session
        op = HashJoinOp(
            ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk", "R.rk2"), ("L.lk", "L.lk2")
        )
        data, _ = session.executor.execute(Job(op))
        expected = brute_force(left, right, [("lk", "rk"), ("lk2", "rk2")])
        assert engine_pairs(data) == expected

    @pytest.mark.parametrize("join", [HashJoinOp, BroadcastJoinOp])
    def test_composite_key_with_a_null_in_the_second_column_only(self, join):
        left = [
            {"lid": i, "lk": i % 4, "lk2": None if i % 3 == 0 else i % 2}
            for i in range(40)
        ]
        right = [
            {"rid": i, "rk": i % 4, "rk2": None if i == 5 else i % 2}
            for i in range(12)
        ]
        session = two_table_session(left, right)
        op = join(
            ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk", "R.rk2"), ("L.lk", "L.lk2")
        )
        data, _ = session.executor.execute(Job(op))
        expected = brute_force(left, right, [("lk", "rk"), ("lk2", "rk2")])
        assert expected and engine_pairs(data) == expected

    def test_exchange_skipped_when_copartitioned(self, joined_session):
        session, _, _ = joined_session
        # join on the primary (partitioning) keys: no exchange on either side
        op = HashJoinOp(ScanOp("R", "R"), ScanOp("L", "L"), ("R.rid",), ("L.lid",))
        _, metrics = session.executor.execute(Job(op))
        assert metrics.network == 0.0

    def test_exchange_charged_otherwise(self, joined_session):
        session, _, _ = joined_session
        op = HashJoinOp(ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk",), ("L.lk",))
        _, metrics = session.executor.execute(Job(op))
        assert metrics.network > 0.0

    def test_key_arity_validated(self):
        with pytest.raises(ExecutionError):
            HashJoinOp(ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk",), ())

    def test_output_partitioned_on_probe_key(self, joined_session):
        session, _, _ = joined_session
        op = HashJoinOp(ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk",), ("L.lk",))
        data, _ = session.executor.execute(Job(op))
        assert data.partitioned_on == "L.lk"


class TestJoinKeyColumn:
    """Build-side keys: composite keys collapse to ``None`` on any null part."""

    COLUMNS = {"a": (1, 2, 3), "b": ["x", None, "z"], "c": [7, 8, 9]}

    def test_single_column_is_the_column_itself(self):
        assert vector.join_key_column(self.COLUMNS, 3, ("b",)) is self.COLUMNS["b"]

    def test_clean_columns_zip_to_one_tuple_per_row(self):
        keys = vector.join_key_column(self.COLUMNS, 3, ("a", "c"))
        assert keys == [(1, 7), (2, 8), (3, 9)] and type(keys) is list

    @pytest.mark.parametrize("names", [("b", "a"), ("a", "b"), ("a", "c", "b")])
    def test_a_null_in_any_key_column_collapses_that_row(self, names):
        keys = vector.join_key_column(self.COLUMNS, 3, names)
        assert [key is None for key in keys] == [False, True, False]
        assert keys[0] == tuple(self.COLUMNS[name][0] for name in names)

    def test_an_absent_key_column_reads_as_nulls(self):
        assert vector.join_key_column(self.COLUMNS, 3, ("a", "ghost")) == [None] * 3


class TestBuildTableContainers:
    """A duplicate-key build allocates a fixed number of containers for the
    cycle collector, however many distinct keys it holds (DESIGN.md §10.3)."""

    @staticmethod
    def tracked_objects_added(rows: int) -> int:
        keys = [row // 4 for row in range(rows)]  # each key four times
        random.Random(rows).shuffle(keys)
        keys[::7] = [None] * len(keys[::7])
        vector.build_hash_table([0, 0])  # a first call fills interpreter caches
        enabled = gc.isenabled()
        gc.disable()  # a collection mid-build would untrack what it counts
        try:
            before = len(gc.get_objects())
            table = vector.build_hash_table(keys)
            added = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert table.groups is not None
        return added

    def test_tracked_objects_do_not_grow_with_the_key_count(self):
        small = self.tracked_objects_added(1_000)
        large = self.tracked_objects_added(100_000)
        assert small == large <= 8


class TestBroadcastJoin:
    def test_matches_brute_force(self, joined_session):
        session, left, right = joined_session
        op = BroadcastJoinOp(ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk",), ("L.lk",))
        data, _ = session.executor.execute(Job(op))
        assert engine_pairs(data) == brute_force(left, right, [("lk", "rk")])

    def test_probe_partitioning_preserved(self, joined_session):
        session, _, _ = joined_session
        op = BroadcastJoinOp(
            ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk",), ("L.lid",)
        )
        data, _ = session.executor.execute(Job(op))
        assert data.partitioned_on == "L.lid"

    def test_same_rows_as_hash(self, joined_session):
        session, _, _ = joined_session
        hash_op = HashJoinOp(ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk",), ("L.lk",))
        bcast_op = BroadcastJoinOp(
            ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk",), ("L.lk",)
        )
        hash_data, _ = session.executor.execute(Job(hash_op))
        bcast_data, _ = session.executor.execute(Job(bcast_op))
        assert engine_pairs(hash_data) == engine_pairs(bcast_data)


class TestIndexNestedLoopJoin:
    def test_matches_brute_force(self, joined_session):
        session, left, right = joined_session
        session.datasets.get("L").create_index("lk")
        build = SelectOp(ScanOp("R", "R"), (ComparisonPredicate("R.rk2", "=", 1),))
        op = IndexNestedLoopJoinOp(build, "L", "L", ("R.rk",), ("lk",))
        data, metrics = session.executor.execute(Job(op))
        expected = sorted(
            (l["lid"], r["rid"])
            for l in left
            for r in right
            if r["rk2"] == 1 and l["lk"] == r["rk"] and l["lk"] is not None
        )
        assert engine_pairs(data) == expected
        assert metrics.index > 0
        assert metrics.index_lookups > 0

    def test_requires_index(self, joined_session):
        session, _, _ = joined_session
        op = IndexNestedLoopJoinOp(
            ScanOp("R", "R"), "L", "L", ("R.rk",), ("lk2",)
        )
        with pytest.raises(ExecutionError):
            session.executor.execute(Job(op))

    def test_residual_conditions(self, joined_session):
        session, left, right = joined_session
        if not session.datasets.get("L").has_index("lk"):
            session.datasets.get("L").create_index("lk")
        op = IndexNestedLoopJoinOp(
            ScanOp("R", "R"), "L", "L", ("R.rk", "R.rk2"), ("lk", "lk2")
        )
        data, _ = session.executor.execute(Job(op))
        expected = brute_force(left, right, [("lk", "rk"), ("lk2", "rk2")])
        assert engine_pairs(data) == expected


class TestAlgorithmMarkers:
    def test_plan_markers(self):
        assert JoinAlgorithm.HASH.plan_marker == ""
        assert JoinAlgorithm.BROADCAST.plan_marker == "b"
        assert JoinAlgorithm.INDEX_NESTED_LOOP.plan_marker == "i"


class TestJoinEquivalenceProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_hash_equals_broadcast_equals_brute_force(
        self, n_left, n_right, domain, seed
    ):
        left = random_rows(n_left, domain, seed, "l")
        right = random_rows(n_right, domain, seed + 1, "r")
        session = two_table_session(left, right)
        expected = brute_force(left, right, [("lk", "rk")])
        for op_type in (HashJoinOp, BroadcastJoinOp):
            op = op_type(ScanOp("R", "R"), ScanOp("L", "L"), ("R.rk",), ("L.lk",))
            data, _ = session.executor.execute(Job(op))
            assert engine_pairs(data) == expected
