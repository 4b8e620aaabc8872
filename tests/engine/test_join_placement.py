"""Differential test: match-globally/place-locally ≡ exchange-then-local-join.

DESIGN.md §10.2's invariant: every output partition of ``HashJoinOp`` /
``BroadcastJoinOp`` holds exactly the rows, in exactly the order, that
physically exchanging the inputs and joining partition by partition gives
(``tests/engine/reference_join.py``, the retired path), and the simulated
clock is charged the same components, amounts and order. Generated inputs
cover int / str / null / composite keys, unique and duplicated build keys,
expanding many-to-many matches, empty partitions, physical column subsets
narrower than the logical map, and all four (build moves, probe moves)
combinations with truthfully pre-partitioned inputs.

Same-type keys only: where ``1`` meets ``1.0`` the reference *is* the bug
(the two sides hash to different partitions), so cross-type keys are held to
a brute-force nested loop instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.cost import CostModel
from repro.common.rng import stable_hash
from repro.common.types import DataType
from repro.engine.data import ColumnarData, ColumnPartition
from repro.engine.metrics import JobMetrics
from repro.engine.operators.base import ExecState
from repro.engine.operators.joins import BroadcastJoinOp, HashJoinOp
from repro.lang.ast import EvaluationContext
from repro.stats.catalog import StatisticsCatalog
from repro.storage.catalog import DatasetCatalog

from tests.engine.reference_join import (
    reference_broadcast_join,
    reference_hash_join,
)


@dataclass
class RecordingState(ExecState):
    """ExecState that also keeps the charge sequence."""

    charges: list = field(default_factory=list)

    def charge(self, component: str, seconds: float) -> None:
        self.charges.append((component, seconds))
        super().charge(component, seconds)


def make_state(partition_count: int) -> RecordingState:
    cluster = ClusterConfig(nodes=partition_count, cores_per_node=1)
    return RecordingState(
        cluster=cluster,
        cost=CostModel(cluster),
        datasets=DatasetCatalog(),
        statistics=StatisticsCatalog(),
        evaluation=EvaluationContext(),
        metrics=JobMetrics(),
    )


class Stub:
    children = ()

    def __init__(self, data: ColumnarData) -> None:
        self.data = data

    def run(self, state) -> ColumnarData:
        return self.data


def snapshot(data: ColumnarData, state: RecordingState) -> tuple:
    # item lists, not dicts: column order is part of the contract
    return (
        [(list(p.columns.items()), p.length) for p in data.partitions],
        list(data.columns.items()),
        data.partitioned_on,
        data.scale,
        state.charges,
        state.metrics,
    )


# -- generated inputs ----------------------------------------------------------

INT_KEYS = st.one_of(st.none(), st.integers(0, 6))
STR_KEYS = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "dd", ""]))


@st.composite
def join_sides(draw, key_values=None):
    """(partition count, build, probe, build_keys, probe_keys).

    Each side is ``ColumnarData`` over ``partition_count`` partitions with
    logical columns ``<side>.k0`` [``<side>.k1``], ``<side>.v`` (a unique row
    tag), ``shared`` (on both sides) and a dead logical column no partition
    physically holds. A side is either laid out truthfully on its first key
    (``partitioned_on`` set) or scattered arbitrarily (``partitioned_on``
    unset, so the plan moves it).
    """
    partition_count = draw(st.integers(1, 5))
    if key_values is None:
        key_values = draw(st.lists(st.sampled_from([INT_KEYS, STR_KEYS]), min_size=1, max_size=2))
    arity = len(key_values)
    sides = []
    for side, max_rows in (("b", 14), ("p", 24)):
        names = [f"{side}.k{i}" for i in range(arity)] + [f"{side}.v", "shared"]
        rows = draw(
            st.lists(
                st.tuples(*key_values, st.integers(0, 99)),
                max_size=max_rows,
            )
        )
        truthful = draw(st.booleans())
        buckets: list[list[tuple]] = [[] for _ in range(partition_count)]
        for number, row in enumerate(rows):
            if truthful:
                slot = stable_hash(row[0]) % partition_count
            else:
                slot = draw(st.integers(0, partition_count - 1))
            buckets[slot].append((*row[:arity], f"{side}{number}", row[arity]))
        # mostly every column; sometimes narrower, even without a key column
        physical = [name for name in names if draw(st.integers(0, 9)) > 0]
        partitions = [
            ColumnPartition(
                {name: [row[names.index(name)] for row in bucket] for name in physical},
                len(bucket),
            )
            for bucket in buckets
        ]
        columns = {name: DataType.INT for name in names}
        columns["shared"] = DataType.DOUBLE if side == "b" else DataType.INT
        columns[f"{side}.dead"] = DataType.STRING
        sides.append(
            ColumnarData(
                partitions,
                columns,
                names[0] if truthful else None,
                draw(st.sampled_from([1.0, 3.0, 1000.0])),
            )
        )
    build_keys = tuple(f"b.k{i}" for i in range(arity))
    probe_keys = tuple(f"p.k{i}" for i in range(arity))
    return partition_count, sides[0], sides[1], build_keys, probe_keys


@settings(max_examples=300, deadline=None)
@given(join_sides())
def test_hash_join_equals_exchange_then_local_join(case):
    partition_count, build, probe, build_keys, probe_keys = case
    expected_state = make_state(partition_count)
    expected = reference_hash_join(build, probe, build_keys, probe_keys, expected_state)
    state = make_state(partition_count)
    op = HashJoinOp(Stub(build), Stub(probe), build_keys, probe_keys)
    assert snapshot(op.execute(state), state) == snapshot(expected, expected_state)


@settings(max_examples=150, deadline=None)
@given(join_sides())
def test_broadcast_join_equals_gathered_build_per_partition(case):
    partition_count, build, probe, build_keys, probe_keys = case
    expected_state = make_state(partition_count)
    expected = reference_broadcast_join(
        build, probe, build_keys, probe_keys, expected_state
    )
    state = make_state(partition_count)
    op = BroadcastJoinOp(Stub(build), Stub(probe), build_keys, probe_keys)
    assert snapshot(op.execute(state), state) == snapshot(expected, expected_state)


def test_expanding_join_keeps_reference_order():
    """Many-to-many on one hot key spread over every partition: 12 x 15
    matches, both sides moved, each output row in the reference's position."""
    build = ColumnarData(
        [
            ColumnPartition({"b.k0": [7] * 4, "b.v": list(range(4 * i, 4 * i + 4))}, 4)
            for i in range(3)
        ],
        {"b.k0": DataType.INT, "b.v": DataType.INT},
    )
    probe = ColumnarData(
        [
            ColumnPartition(
                {"p.k0": [7, 8] * 5, "p.v": list(range(10 * i, 10 * i + 10))}, 10
            )
            for i in range(3)
        ],
        {"p.k0": DataType.INT, "p.v": DataType.INT},
    )
    expected_state, state = make_state(3), make_state(3)
    expected = reference_hash_join(build, probe, ("b.k0",), ("p.k0",), expected_state)
    got = HashJoinOp(Stub(build), Stub(probe), ("b.k0",), ("p.k0",)).execute(state)
    assert state.metrics.tuples_joined == 12 * 15
    assert snapshot(got, state) == snapshot(expected, expected_state)


# -- cross-type keys: against a brute-force nested loop ------------------------

MIXED_KEYS = st.one_of(
    st.none(),
    st.integers(0, 4),
    st.integers(0, 4).map(float),
    st.sampled_from([0.5, -0.0, 2.5]),
)
#: the values Python equality conflates across types: ``-0.0 == 0 == 0.0 ==
#: False`` and ``1 == 1.0 == True``
EDGE_KEYS = st.sampled_from([None, -0.0, 0, 0.0, False, 1, 1.0, True, 2])
#: a key column that is mostly null, with int, double, bool and string values
NULL_HEAVY_KEYS = st.sampled_from([None, None, None, None, None, 0, 1.0, True, "a"])


@st.composite
def mixed_sides(draw):
    """``join_sides`` over one or two keys (composite), each column drawn
    from the mixed-type, conflated-value or null-heavy value sets."""
    key_sets = [MIXED_KEYS, EDGE_KEYS, NULL_HEAVY_KEYS]
    keys = draw(st.lists(st.sampled_from(key_sets), min_size=1, max_size=2))
    return draw(join_sides(key_values=keys))


def nested_loop(build: ColumnarData, probe: ColumnarData, build_keys, probe_keys):
    """Multiset of (build tag, probe tag) pairs under SQL equality."""
    pairs = []
    for b in build.all_rows():
        for p in probe.all_rows():
            values = [(b.get(bk), p.get(pk)) for bk, pk in zip(build_keys, probe_keys)]
            if all(x is not None and y is not None and x == y for x, y in values):
                pairs.append((b.get("b.v"), p.get("p.v")))
    return sorted(pairs)


@settings(max_examples=500, deadline=None)
@given(mixed_sides(), st.booleans())
def test_cross_type_keys_match_a_nested_loop(case, broadcast):
    partition_count, build, probe, build_keys, probe_keys = case
    physical = set(build.partitions[0].columns) | set(probe.partitions[0].columns)
    assume({"b.v", "p.v"} <= physical)  # the row tags this oracle compares
    cls = BroadcastJoinOp if broadcast else HashJoinOp
    out = cls(Stub(build), Stub(probe), build_keys, probe_keys).execute(
        make_state(partition_count)
    )
    pairs = sorted((row.get("b.v"), row.get("p.v")) for row in out.all_rows())
    assert pairs == nested_loop(build, probe, build_keys, probe_keys)
    if out.partitioned_on == "p.k0" and "p.k0" in physical:
        # the partitioning property the join claims is true of every row
        for slot, partition in enumerate(out.partitions):
            for value in partition.column("p.k0"):
                assert stable_hash(value) % partition_count == slot
